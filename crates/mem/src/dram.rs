//! The node's external SDRAM with page-mode timing and SECDED.
//!
//! Each M-Machine node carries 1 MW (8 MB) of synchronous DRAM; the MAP's
//! memory interface "exploits the pipeline and page mode of the external
//! memory and performs SECDED error control" (§2). This model keeps an
//! open row per internal bank: accesses to the open row pay the short CAS
//! latency, others pay a precharge+activate penalty, and bursts then
//! stream one word per cycle.
//!
//! Every modelled word is stored as one packed 16-byte cell
//! (`MemWord::pack`): the 64 data bits, then the pointer tag, the
//! sync bit and the 8 SECDED check bits. A zero word with its (zero)
//! check bits packs to `0`, so the array comes from a zeroed allocation
//! (`vec![0u128; n]`), which the allocator serves with fresh zero pages
//! on demand: memory a program never touches is never faulted in or
//! written, and building a large machine costs nothing per idle word.

use crate::secded::{decode, encode, Decoded};
use mm_faults::{CkptError, Dec, Enc};
use mm_isa::word::Word;

/// One word of storage: data bits + pointer tag + synchronization bit +
/// the 8 SECDED check bits.
///
/// The synchronization bit is the per-memory-word full/empty bit of §2;
/// it travels with the word through the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemWord {
    /// The tagged data word.
    pub word: Word,
    /// Full/empty synchronization bit.
    pub sync: bool,
    /// SECDED check bits over the data bits.
    pub ecc: u8,
}

impl MemWord {
    /// A word with freshly computed check bits and an empty sync bit.
    #[must_use]
    pub fn new(word: Word) -> MemWord {
        MemWord {
            word,
            sync: false,
            ecc: encode(word.bits()),
        }
    }

    /// A word with the sync bit preset.
    #[must_use]
    pub fn with_sync(word: Word, sync: bool) -> MemWord {
        MemWord {
            word,
            sync,
            ecc: encode(word.bits()),
        }
    }

    /// The word as one storage cell: data bits in 0..64, the pointer
    /// tag at 64, the sync bit at 65 and the check bits in 66..74.
    /// `MemWord::new(Word::ZERO)` packs to `0`.
    #[must_use]
    pub(crate) fn pack(self) -> u128 {
        u128::from(self.word.bits())
            | u128::from(self.word.is_pointer()) << 64
            | u128::from(self.sync) << 65
            | u128::from(self.ecc) << 66
    }

    /// The inverse of [`MemWord::pack`].
    #[must_use]
    #[allow(clippy::cast_possible_truncation)]
    pub(crate) fn unpack(cell: u128) -> MemWord {
        MemWord {
            word: Word::from_raw(cell as u64, cell >> 64 & 1 != 0),
            sync: cell >> 65 & 1 != 0,
            ecc: (cell >> 66) as u8,
        }
    }
}

/// SDRAM timing and geometry configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SdramConfig {
    /// Total capacity in words (the paper's node: 1 MW = 8 MB).
    pub capacity_words: u64,
    /// Internal banks, each with one open row.
    pub banks: u64,
    /// Words per row ("page" in DRAM terms).
    pub row_words: u64,
    /// Cycles from request to first word when the row is already open.
    pub first_word_row_hit: u64,
    /// Additional cycles when the row must be precharged + activated.
    pub row_miss_penalty: u64,
    /// Cycles per additional word in a burst.
    pub burst_per_word: u64,
    /// When `false`, every access pays the row-miss penalty (page-mode
    /// disabled — used by the ablation bench).
    pub page_mode: bool,
}

impl Default for SdramConfig {
    fn default() -> SdramConfig {
        SdramConfig {
            capacity_words: 1 << 20,
            banks: 4,
            row_words: 1024,
            // Tuned so a local cache-miss read completes in the paper's 13
            // cycles: 2 (detect) + 1 (translate) + 9 (first word) + 1
            // (register write) = 13; the full 8-word line lands at 19,
            // matching the paper's 19-cycle local miss write.
            first_word_row_hit: 9,
            row_miss_penalty: 6,
            burst_per_word: 1,
            page_mode: true,
        }
    }
}

/// Counters the benches report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SdramStats {
    /// Accesses that hit an open row.
    pub row_hits: u64,
    /// Accesses that required precharge + activate.
    pub row_misses: u64,
    /// Total words transferred.
    pub words_transferred: u64,
    /// Single-bit errors corrected by SECDED.
    pub ecc_corrected: u64,
    /// Uncorrectable double-bit errors observed.
    pub ecc_double_errors: u64,
}

/// The SDRAM array plus its controller state.
#[derive(Debug, Clone)]
pub struct Sdram {
    cfg: SdramConfig,
    /// Packed [`MemWord`] cells.
    words: Vec<u128>,
    open_rows: Vec<Option<u64>>,
    busy_until: u64,
    stats: SdramStats,
}

impl Sdram {
    /// Build an SDRAM of the configured capacity, zero-filled. The
    /// array is a zeroed allocation: no page of it is touched here.
    ///
    /// # Panics
    ///
    /// Panics if `banks` or `row_words` is zero.
    #[must_use]
    pub fn new(cfg: SdramConfig) -> Sdram {
        assert!(
            cfg.banks > 0 && cfg.row_words > 0,
            "degenerate SDRAM geometry"
        );
        let words = vec![0u128; cfg.capacity_words as usize];
        let open_rows = vec![None; cfg.banks as usize];
        Sdram {
            cfg,
            words,
            open_rows,
            busy_until: 0,
            stats: SdramStats::default(),
        }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &SdramConfig {
        &self.cfg
    }

    /// Capacity in words.
    #[must_use]
    pub fn capacity(&self) -> u64 {
        self.cfg.capacity_words
    }

    /// Access statistics so far.
    #[must_use]
    pub fn stats(&self) -> SdramStats {
        self.stats
    }

    fn bank_and_row(&self, addr: u64) -> (usize, u64) {
        let row_index = addr / self.cfg.row_words;
        #[allow(clippy::cast_possible_truncation)]
        let bank = (row_index % self.cfg.banks) as usize;
        (bank, row_index / self.cfg.banks)
    }

    /// Model the timing of an access starting no earlier than `now`;
    /// returns the cycle at which the first word is available and advances
    /// the controller's busy window past the whole burst.
    fn access_timing(&mut self, now: u64, addr: u64, len: u64) -> u64 {
        let start = now.max(self.busy_until);
        let (bank, row) = self.bank_and_row(addr);
        let hit = self.cfg.page_mode && self.open_rows[bank] == Some(row);
        let first = if hit {
            self.stats.row_hits += 1;
            start + self.cfg.first_word_row_hit
        } else {
            self.stats.row_misses += 1;
            start + self.cfg.first_word_row_hit + self.cfg.row_miss_penalty
        };
        self.open_rows[bank] = Some(row);
        let done = first + self.cfg.burst_per_word * len.saturating_sub(1);
        self.busy_until = done;
        self.stats.words_transferred += len;
        first
    }

    /// Read `len` words starting at `addr`, beginning no earlier than
    /// cycle `now`. Returns `(first_word_cycle, last_word_cycle, words)`;
    /// single-bit upsets are corrected transparently, double errors
    /// surface as `None` entries.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the capacity.
    pub fn read(&mut self, now: u64, addr: u64, len: u64) -> (u64, u64, Vec<Option<MemWord>>) {
        let mut out = vec![None; len as usize];
        let (first, last) = self.read_into(now, addr, &mut out);
        (first, last, out)
    }

    /// Read `out.len()` words starting at `addr` into a caller-owned
    /// buffer — the allocation-free form of [`Sdram::read`] the line-fill
    /// path uses (one stack array per fill instead of a heap `Vec`).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the capacity.
    pub fn read_into(&mut self, now: u64, addr: u64, out: &mut [Option<MemWord>]) -> (u64, u64) {
        let len = out.len() as u64;
        assert!(
            addr + len <= self.cfg.capacity_words,
            "SDRAM read out of range: {addr:#x}+{len}"
        );
        let first = self.access_timing(now, addr, len);
        let last = first + self.cfg.burst_per_word * len.saturating_sub(1);
        for (i, slot) in out.iter_mut().enumerate() {
            let cell = MemWord::unpack(self.words[addr as usize + i]);
            *slot = match decode(cell.word.bits(), cell.ecc) {
                Decoded::Clean(_) => Some(cell),
                Decoded::Corrected { data, .. } => {
                    self.stats.ecc_corrected += 1;
                    let repaired = MemWord {
                        word: Word::from_raw(data, cell.word.is_pointer()),
                        sync: cell.sync,
                        ecc: encode(data),
                    };
                    // Scrub the corrected word back to the array.
                    self.words[addr as usize + i] = repaired.pack();
                    Some(repaired)
                }
                Decoded::DoubleError => {
                    self.stats.ecc_double_errors += 1;
                    None
                }
            };
        }
        (first, last)
    }

    /// Write `words` starting at `addr`, beginning no earlier than `now`;
    /// returns the completion cycle. Check bits are recomputed.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the capacity.
    pub fn write(&mut self, now: u64, addr: u64, words: &[MemWord]) -> u64 {
        assert!(
            addr + words.len() as u64 <= self.cfg.capacity_words,
            "SDRAM write out of range: {addr:#x}+{}",
            words.len()
        );
        let first = self.access_timing(now, addr, words.len() as u64);
        for (i, w) in words.iter().enumerate() {
            self.poke(addr + i as u64, *w);
        }
        first + self.cfg.burst_per_word * (words.len() as u64).saturating_sub(1)
    }

    /// Zero-time backdoor read for loaders, debuggers and tests.
    #[must_use]
    pub fn peek(&self, addr: u64) -> MemWord {
        MemWord::unpack(self.words[addr as usize])
    }

    /// Zero-time backdoor write for loaders, debuggers and tests.
    pub fn poke(&mut self, addr: u64, w: MemWord) {
        let ecc = encode(w.word.bits());
        self.words[addr as usize] = MemWord { ecc, ..w }.pack();
    }

    /// Flip a stored data bit (fault injection for the SECDED tests).
    pub fn inject_bit_flip(&mut self, addr: u64, bit: u32) {
        self.words[addr as usize] ^= u128::from(1u64 << bit);
        // Deliberately do NOT recompute ECC: that's the point.
    }

    /// Serialize the array (run-length encoded — a mostly-zero megaword
    /// array collapses to a handful of runs), controller state and
    /// statistics into a checkpoint stream.
    pub fn save_state(&self, e: &mut Enc) {
        e.u64(self.cfg.capacity_words);
        let mut i = 0usize;
        while i < self.words.len() {
            let cell = self.words[i];
            let mut run = 1usize;
            while i + run < self.words.len() && self.words[i + run] == cell {
                run += 1;
            }
            let w = MemWord::unpack(cell);
            e.u64(run as u64);
            e.u64(w.word.bits());
            e.bool(w.word.is_pointer());
            e.bool(w.sync);
            e.u8(w.ecc);
            i += run;
        }
        e.u64(0); // run terminator
        e.usize(self.open_rows.len());
        for r in &self.open_rows {
            match r {
                None => e.u8(0),
                Some(v) => {
                    e.u8(1);
                    e.u64(*v);
                }
            }
        }
        e.u64(self.busy_until);
        let s = &self.stats;
        for v in [
            s.row_hits,
            s.row_misses,
            s.words_transferred,
            s.ecc_corrected,
            s.ecc_double_errors,
        ] {
            e.u64(v);
        }
    }

    /// Restore state saved by [`Sdram::save_state`].
    ///
    /// # Errors
    ///
    /// [`CkptError`] on truncated input, a geometry mismatch (the
    /// checkpoint came from a differently-sized SDRAM) or runs that do
    /// not tile the array.
    pub fn load_state(&mut self, d: &mut Dec<'_>) -> Result<(), CkptError> {
        let cap = d.u64()?;
        if cap != self.cfg.capacity_words {
            return Err(CkptError(format!(
                "SDRAM capacity mismatch: checkpoint has {cap} words, array has {}",
                self.cfg.capacity_words
            )));
        }
        let mut i = 0usize;
        loop {
            let run = d.u64()?;
            if run == 0 {
                break;
            }
            let bits = d.u64()?;
            let tag = d.bool()?;
            let sync = d.bool()?;
            let ecc = d.u8()?;
            let w = MemWord {
                word: Word::from_raw(bits, tag),
                sync,
                ecc,
            };
            let end = usize::try_from(run)
                .ok()
                .and_then(|run| i.checked_add(run))
                .filter(|&end| end <= self.words.len())
                .ok_or_else(|| CkptError("SDRAM runs overflow the array".into()))?;
            self.words[i..end].fill(w.pack());
            i = end;
        }
        if i != self.words.len() {
            return Err(CkptError(format!(
                "SDRAM runs cover {i} of {} words",
                self.words.len()
            )));
        }
        let banks = d.usize()?;
        if banks != self.open_rows.len() {
            return Err(CkptError("SDRAM bank count mismatch".into()));
        }
        for r in &mut self.open_rows {
            *r = match d.u8()? {
                0 => None,
                1 => Some(d.u64()?),
                b => return Err(CkptError(format!("bad open-row tag {b}"))),
            };
        }
        self.busy_until = d.u64()?;
        self.stats = SdramStats {
            row_hits: d.u64()?,
            row_misses: d.u64()?,
            words_transferred: d.u64()?,
            ecc_corrected: d.u64()?,
            ecc_double_errors: d.u64()?,
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small() -> Sdram {
        Sdram::new(SdramConfig {
            capacity_words: 4096,
            ..SdramConfig::default()
        })
    }

    /// The zeroed allocation is a valid array only because a zero word
    /// with its check bits packs to all-zero.
    #[test]
    fn zero_word_packs_to_zero() {
        assert_eq!(MemWord::new(Word::ZERO).pack(), 0);
        assert_eq!(
            Sdram::new(SdramConfig::default()).peek(12345),
            MemWord::new(Word::ZERO)
        );
    }

    proptest! {
        #[test]
        fn pack_unpack_round_trips(
            (bits, tag, sync, ecc) in (any::<u64>(), any::<bool>(), any::<bool>(), any::<u8>())
        ) {
            let w = MemWord { word: Word::from_raw(bits, tag), sync, ecc };
            prop_assert_eq!(MemWord::unpack(w.pack()), w);
        }
    }

    /// A crafted run length must not overflow the array index.
    #[test]
    fn load_state_rejects_huge_runs() {
        let mut d = Sdram::new(SdramConfig {
            capacity_words: 16,
            ..SdramConfig::default()
        });
        for first in [1, 0] {
            let mut e = Enc::new();
            e.u64(16);
            if first == 1 {
                // A valid first run moves the cursor off zero.
                e.u64(1);
                e.u64(0);
                e.bool(false);
                e.bool(false);
                e.u8(0);
            }
            e.u64(u64::MAX);
            e.u64(0);
            e.bool(false);
            e.bool(false);
            e.u8(0);
            let bytes = e.finish();
            assert!(d.load_state(&mut Dec::new(&bytes)).is_err());
        }
    }

    #[test]
    fn poke_peek_round_trip() {
        let mut d = small();
        d.poke(10, MemWord::with_sync(Word::from_i64(-3), true));
        let w = d.peek(10);
        assert_eq!(w.word.as_i64(), -3);
        assert!(w.sync);
    }

    #[test]
    fn row_hit_vs_miss_timing() {
        let mut d = small();
        let (f1, _, _) = d.read(0, 0, 1);
        // First access: row miss.
        assert_eq!(f1, 9 + 6);
        let (f2, _, _) = d.read(f1, 1, 1);
        // Same row: hit.
        assert_eq!(f2, f1 + 9);
        assert_eq!(d.stats().row_hits, 1);
        assert_eq!(d.stats().row_misses, 1);
    }

    #[test]
    fn page_mode_off_always_misses() {
        let mut d = Sdram::new(SdramConfig {
            capacity_words: 4096,
            page_mode: false,
            ..SdramConfig::default()
        });
        d.read(0, 0, 1);
        d.read(100, 1, 1);
        assert_eq!(d.stats().row_hits, 0);
        assert_eq!(d.stats().row_misses, 2);
    }

    #[test]
    fn burst_timing() {
        let mut d = small();
        let (first, last, words) = d.read(0, 0, 8);
        assert_eq!(words.len(), 8);
        assert_eq!(last, first + 7);
    }

    #[test]
    fn controller_serializes() {
        let mut d = small();
        let (f1, l1, _) = d.read(0, 0, 8);
        let (f2, _, _) = d.read(f1, 0, 1); // issued while burst in flight
        assert!(f2 >= l1, "second access must wait for the burst");
    }

    #[test]
    fn ecc_corrects_and_scrubs() {
        let mut d = small();
        d.poke(5, MemWord::new(Word::from_u64(0xFFFF)));
        d.inject_bit_flip(5, 3);
        let (_, _, words) = d.read(0, 5, 1);
        assert_eq!(words[0].unwrap().word.bits(), 0xFFFF);
        assert_eq!(d.stats().ecc_corrected, 1);
        // Scrubbed: a second read is clean.
        let (_, _, again) = d.read(50, 5, 1);
        assert_eq!(again[0].unwrap().word.bits(), 0xFFFF);
        assert_eq!(d.stats().ecc_corrected, 1);
    }

    #[test]
    fn ecc_flags_double_errors() {
        let mut d = small();
        d.poke(5, MemWord::new(Word::from_u64(0xABCD)));
        d.inject_bit_flip(5, 3);
        d.inject_bit_flip(5, 17);
        let (_, _, words) = d.read(0, 5, 1);
        assert!(words[0].is_none());
        assert_eq!(d.stats().ecc_double_errors, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn read_out_of_range_panics() {
        let mut d = small();
        let _ = d.read(0, 4090, 8);
    }

    /// A lived-in SDRAM (writes, pending ECC damage, open rows, busy
    /// controller) round-trips through the RLE checkpoint codec.
    #[test]
    fn sdram_state_round_trips() {
        let mut d = small();
        d.poke(5, MemWord::with_sync(Word::from_u64(0xABCD), true));
        d.poke(4000, MemWord::new(Word::from_i64(-9)));
        d.inject_bit_flip(5, 3); // un-scrubbed upset survives the trip
        let _ = d.read(0, 100, 8);
        let mut e = Enc::new();
        d.save_state(&mut e);
        let bytes = e.finish();
        let mut r = small();
        let mut dec = Dec::new(&bytes);
        r.load_state(&mut dec).expect("load");
        assert_eq!(dec.remaining(), 0);
        assert_eq!(r.stats(), d.stats());
        for addr in [0u64, 5, 100, 4000, 4095] {
            assert_eq!(r.peek(addr), d.peek(addr), "word {addr}");
        }
        // The restored array still corrects (and counts) the upset.
        let (_, _, words) = r.read(200, 5, 1);
        assert_eq!(words[0].unwrap().word.bits(), 0xABCD);
        assert_eq!(r.stats().ecc_corrected, 1);
        // A different geometry refuses the checkpoint.
        let mut other = Sdram::new(SdramConfig {
            capacity_words: 2048,
            ..SdramConfig::default()
        });
        assert!(other.load_state(&mut Dec::new(&bytes)).is_err());
    }

    #[test]
    fn different_banks_track_rows_independently() {
        let mut d = small();
        // addr 0 -> row_index 0 -> bank 0; addr 1024 -> row_index 1 -> bank 1.
        let (f1, _, _) = d.read(0, 0, 1);
        let (f2, _, _) = d.read(f1, 1024, 1);
        let (f3, _, _) = d.read(f2, 0, 1);
        let (f4, _, _) = d.read(f3, 1024, 1);
        // Third and fourth accesses hit their banks' still-open rows.
        assert_eq!(f3 - f2, 9);
        assert_eq!(f4 - f3, 9);
        assert_eq!(d.stats().row_hits, 2);
    }
}
