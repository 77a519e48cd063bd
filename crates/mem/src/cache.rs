//! The on-chip cache: four word-interleaved, virtually-addressed banks.
//!
//! "The on-chip cache is organized as four word-interleaved 4KW (32KB)
//! banks to permit four consecutive word accesses to proceed in parallel.
//! The cache is virtually addressed and tagged. The cache banks are
//! pipelined with a three-cycle read latency, including switch traversal"
//! (§2). Lines are 8 words — the same granularity as the block-status
//! bits — so coherence invalidations map one block to one line.
//!
//! Consecutive words live in different banks (`bank = va mod 4`); a line
//! spans all four banks, two words in each. Tag and state are kept once
//! per line. Each line carries a `writable` bit derived from the page's
//! block-status bits at fill time, so stores to locally-cached READ-ONLY
//! remote data fault even on a cache hit.
//!
//! Storage is one zeroed `Vec<u128>`: per line, a metadata cell (tag,
//! line-aligned physical base, and the valid/dirty/writable bits in the
//! base's free low bits) followed by the line's eight words packed as in
//! [`crate::dram`]. An all-zero metadata cell is an invalid line, so a
//! new cache is a zeroed allocation whose pages are touched only when a
//! line is filled. Keeping metadata and data in one allocation is
//! deliberate: a separate metadata vector is small enough to land on the
//! malloc heap, where the memory freed by dropping one machine fragments
//! rather than returning to the OS, and the heap of a process that builds
//! and drops machines repeatedly then grows with every build.

use crate::dram::MemWord;
use mm_faults::{CkptError, Dec, Enc};

/// Words per cache line (= words per block-status block).
pub const LINE_WORDS: u64 = 8;

/// Cache geometry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of banks (fixed at 4 on the MAP; configurable for ablations).
    pub banks: u64,
    /// Words per bank (4 KW on the MAP).
    pub words_per_bank: u64,
}

impl CacheConfig {
    /// Total lines in the cache.
    #[must_use]
    pub fn num_lines(&self) -> u64 {
        self.banks * self.words_per_bank / LINE_WORDS
    }
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig {
            banks: 4,
            words_per_bank: 4096,
        }
    }
}

/// Cells per line in the cache array: one metadata cell, then the
/// line's [`LINE_WORDS`] packed data words.
const LINE_CELLS: usize = 1 + LINE_WORDS as usize;

/// Metadata flag bits. The line base address is line-aligned, so its low
/// three bits are free to hold them. `DIRTY` is only ever set on a
/// `VALID` line.
const VALID: u128 = 1;
const DIRTY: u128 = 2;
const WRITABLE: u128 = 4;

/// The metadata cell of a valid line: `tag` in the high 64 bits, the
/// line-aligned physical base below it, the flags in the low bits. An
/// all-zero cell is an invalid line.
fn meta(tag: u64, pa_base: u64, dirty: bool, writable: bool) -> u128 {
    u128::from(tag) << 64
        | u128::from(pa_base)
        | VALID
        | if dirty { DIRTY } else { 0 }
        | if writable { WRITABLE } else { 0 }
}

/// The tag of a metadata cell.
#[allow(clippy::cast_possible_truncation)]
fn meta_tag(m: u128) -> u64 {
    (m >> 64) as u64
}

/// The physical line base of a metadata cell.
#[allow(clippy::cast_possible_truncation)]
fn meta_pa(m: u128) -> u64 {
    m as u64 & !(LINE_WORDS - 1)
}

/// Result of attempting a store hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreOutcome {
    /// The word was written (line now dirty).
    Written,
    /// The line is present but not writable (block-status fault).
    NotWritable,
    /// The line is not present.
    Miss,
}

/// A dirty line evicted by a fill, to be written back to DRAM.
#[derive(Debug, Clone)]
pub struct Victim {
    /// Virtual address of the first word of the victim line.
    pub va: u64,
    /// Physical address of the first word of the victim line.
    pub pa: u64,
    /// The eight words of the line.
    pub data: [MemWord; LINE_WORDS as usize],
}

/// Counters for the cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Read hits.
    pub read_hits: u64,
    /// Read misses.
    pub read_misses: u64,
    /// Write hits.
    pub write_hits: u64,
    /// Write misses.
    pub write_misses: u64,
    /// Dirty lines written back.
    pub writebacks: u64,
}

/// The four-bank, direct-mapped, virtually-tagged cache.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// Line `i` occupies `cells[i * LINE_CELLS..][..LINE_CELLS]`: its
    /// metadata cell, then its words packed by [`MemWord::pack`].
    cells: Vec<u128>,
    stats: CacheStats,
}

impl Cache {
    /// Build an empty cache. The array is a zeroed allocation, so every
    /// line starts invalid and no page of it is touched here.
    ///
    /// # Panics
    ///
    /// Panics if the geometry yields zero lines or a non-power-of-two line
    /// count.
    #[must_use]
    pub fn new(cfg: CacheConfig) -> Cache {
        let n = cfg.num_lines();
        assert!(
            n > 0 && n.is_power_of_two(),
            "line count must be a power of two"
        );
        Cache {
            cells: vec![0u128; n as usize * LINE_CELLS],
            cfg,
            stats: CacheStats::default(),
        }
    }

    /// The geometry in use.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Statistics so far.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The bank serving virtual address `va` (word-interleaved).
    #[must_use]
    pub fn bank_of(&self, va: u64) -> usize {
        #[allow(clippy::cast_possible_truncation)]
        {
            (va % self.cfg.banks) as usize
        }
    }

    fn index_of(&self, va: u64) -> usize {
        #[allow(clippy::cast_possible_truncation)]
        {
            ((va / LINE_WORDS) % self.cfg.num_lines()) as usize
        }
    }

    fn tag_of(&self, va: u64) -> u64 {
        va / LINE_WORDS / self.cfg.num_lines()
    }

    /// The index of the metadata cell of the line holding `va`, when
    /// that line is resident.
    fn hit(&self, va: u64) -> Option<usize> {
        let base = self.index_of(va) * LINE_CELLS;
        let m = self.cells[base];
        (m & VALID != 0 && meta_tag(m) == self.tag_of(va)).then_some(base)
    }

    /// The index of the cell holding the word at `va` in the line whose
    /// metadata cell is at `base`.
    fn word_cell(base: usize, va: u64) -> usize {
        #[allow(clippy::cast_possible_truncation)]
        {
            base + 1 + (va % LINE_WORDS) as usize
        }
    }

    /// The line whose metadata cell is at `base`, as a write-back victim.
    fn victim(&mut self, base: usize, va: u64) -> Victim {
        self.stats.writebacks += 1;
        Victim {
            va,
            pa: meta_pa(self.cells[base]),
            data: std::array::from_fn(|k| MemWord::unpack(self.cells[base + 1 + k])),
        }
    }

    /// Is the word at `va` present?
    #[must_use]
    pub fn contains(&self, va: u64) -> bool {
        self.hit(va).is_some()
    }

    /// Read a word on a hit. Counts a read hit or miss.
    pub fn read(&mut self, va: u64) -> Option<MemWord> {
        let word = self.peek(va);
        if word.is_some() {
            self.stats.read_hits += 1;
        } else {
            self.stats.read_misses += 1;
        }
        word
    }

    /// Write a word on a hit. Counts a write hit or miss.
    pub fn write(&mut self, va: u64, w: MemWord) -> StoreOutcome {
        let Some(base) = self.hit(va) else {
            self.stats.write_misses += 1;
            return StoreOutcome::Miss;
        };
        if self.cells[base] & WRITABLE == 0 {
            return StoreOutcome::NotWritable;
        }
        self.stats.write_hits += 1;
        self.cells[Self::word_cell(base, va)] = w.pack();
        self.cells[base] |= DIRTY;
        StoreOutcome::Written
    }

    /// Update only the synchronization bit of a resident word (used by
    /// synchronizing loads; requires a writable line, like any mutation).
    pub fn set_sync(&mut self, va: u64, sync: bool) -> StoreOutcome {
        let Some(base) = self.hit(va) else {
            return StoreOutcome::Miss;
        };
        if self.cells[base] & WRITABLE == 0 {
            return StoreOutcome::NotWritable;
        }
        let cell = &mut self.cells[Self::word_cell(base, va)];
        *cell = MemWord {
            sync,
            ..MemWord::unpack(*cell)
        }
        .pack();
        self.cells[base] |= DIRTY;
        StoreOutcome::Written
    }

    /// Install the line containing `va`, whose physical base is `pa_base`.
    /// Returns the evicted dirty line, if any, for write-back.
    pub fn fill(
        &mut self,
        va: u64,
        pa_base: u64,
        data: [MemWord; LINE_WORDS as usize],
        writable: bool,
    ) -> Option<Victim> {
        let idx = self.index_of(va);
        let base = idx * LINE_CELLS;
        let m = self.cells[base];
        let victim = (m & DIRTY != 0).then(|| {
            let victim_va = (meta_tag(m) * self.cfg.num_lines() + idx as u64) * LINE_WORDS;
            self.victim(base, victim_va)
        });
        self.cells[base] = meta(
            self.tag_of(va),
            pa_base & !(LINE_WORDS - 1),
            false,
            writable,
        );
        for (cell, w) in self.cells[base + 1..base + LINE_CELLS].iter_mut().zip(data) {
            *cell = w.pack();
        }
        victim
    }

    /// Read a resident word without touching statistics (backdoor for
    /// loaders, sync-precondition checks and firmware).
    #[must_use]
    pub fn peek(&self, va: u64) -> Option<MemWord> {
        let base = self.hit(va)?;
        Some(MemWord::unpack(self.cells[Self::word_cell(base, va)]))
    }

    /// Overwrite a resident word without touching statistics or the
    /// writable bit (backdoor for loaders and firmware).
    pub fn poke(&mut self, va: u64, w: MemWord) -> bool {
        let Some(base) = self.hit(va) else {
            return false;
        };
        self.cells[Self::word_cell(base, va)] = w.pack();
        self.cells[base] |= DIRTY;
        true
    }

    /// Invalidate the line containing `va` (coherence). Returns the line's
    /// contents if it was dirty, so the caller can write it back.
    pub fn invalidate(&mut self, va: u64) -> Option<Victim> {
        let base = self.hit(va)?;
        let victim =
            (self.cells[base] & DIRTY != 0).then(|| self.victim(base, va & !(LINE_WORDS - 1)));
        self.cells[base] = 0;
        victim
    }

    /// Serialize every valid line plus the statistics into a checkpoint
    /// stream (invalid lines are skipped; restore re-empties them).
    pub fn save_state(&self, e: &mut Enc) {
        e.u64(self.cfg.num_lines());
        let valid = || {
            self.cells
                .chunks_exact(LINE_CELLS)
                .enumerate()
                .filter(|(_, line)| line[0] & VALID != 0)
        };
        e.usize(valid().count());
        for (idx, line) in valid() {
            let m = line[0];
            e.usize(idx);
            e.u64(meta_tag(m));
            e.bool(m & DIRTY != 0);
            e.bool(m & WRITABLE != 0);
            e.u64(meta_pa(m));
            for &cell in &line[1..] {
                let w = MemWord::unpack(cell);
                e.u64(w.word.bits());
                e.bool(w.word.is_pointer());
                e.bool(w.sync);
                e.u8(w.ecc);
            }
        }
        let s = &self.stats;
        for v in [
            s.read_hits,
            s.read_misses,
            s.write_hits,
            s.write_misses,
            s.writebacks,
        ] {
            e.u64(v);
        }
    }

    /// Restore state saved by [`Cache::save_state`].
    ///
    /// # Errors
    ///
    /// [`CkptError`] on truncated input, a geometry mismatch, an
    /// out-of-range line index or a line base that is not line-aligned.
    pub fn load_state(&mut self, d: &mut Dec<'_>) -> Result<(), CkptError> {
        let n = d.u64()?;
        if n != self.cfg.num_lines() {
            return Err(CkptError(format!(
                "cache line-count mismatch: checkpoint has {n}, cache has {}",
                self.cfg.num_lines()
            )));
        }
        self.cells.fill(0);
        for _ in 0..d.usize()? {
            let idx = d.usize()?;
            if idx >= self.cells.len() / LINE_CELLS {
                return Err(CkptError(format!("cache line index {idx} out of range")));
            }
            let tag = d.u64()?;
            let dirty = d.bool()?;
            let writable = d.bool()?;
            let pa_base = d.u64()?;
            if pa_base % LINE_WORDS != 0 {
                return Err(CkptError(format!(
                    "cache line base {pa_base:#x} is not line-aligned"
                )));
            }
            let base = idx * LINE_CELLS;
            for k in 1..LINE_CELLS {
                let bits = d.u64()?;
                let ptr = d.bool()?;
                let sync = d.bool()?;
                let ecc = d.u8()?;
                self.cells[base + k] = MemWord {
                    word: mm_isa::word::Word::from_raw(bits, ptr),
                    sync,
                    ecc,
                }
                .pack();
            }
            self.cells[base] = meta(tag, pa_base, dirty, writable);
        }
        self.stats = CacheStats {
            read_hits: d.u64()?,
            read_misses: d.u64()?,
            write_hits: d.u64()?,
            write_misses: d.u64()?,
            writebacks: d.u64()?,
        };
        Ok(())
    }

    /// Downgrade the line containing `va` to read-only (coherence), if
    /// present. Returns its contents if it was dirty (for write-back).
    pub fn downgrade(&mut self, va: u64) -> Option<Victim> {
        let base = self.hit(va)?;
        let m = self.cells[base];
        self.cells[base] = m & !(WRITABLE | DIRTY);
        (m & DIRTY != 0).then(|| self.victim(base, va & !(LINE_WORDS - 1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_isa::word::Word;

    fn mk(v: u64) -> MemWord {
        MemWord::new(Word::from_u64(v))
    }

    fn line(vals: std::ops::Range<u64>) -> [MemWord; LINE_WORDS as usize] {
        let v: Vec<MemWord> = vals.map(mk).collect();
        v.try_into().expect("test lines are LINE_WORDS long")
    }

    fn cache() -> Cache {
        Cache::new(CacheConfig {
            banks: 4,
            words_per_bank: 64, // 256 words, 32 lines — small for tests
        })
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = cache();
        assert_eq!(c.read(8), None);
        assert!(c.fill(8, 8, line(0..8), true).is_none());
        assert_eq!(c.read(9).unwrap().word.bits(), 1);
        assert!(c.contains(15));
        assert!(!c.contains(16));
        assert_eq!(c.stats().read_hits, 1);
        assert_eq!(c.stats().read_misses, 1);
    }

    #[test]
    fn bank_interleaving() {
        let c = cache();
        assert_eq!(c.bank_of(0), 0);
        assert_eq!(c.bank_of(1), 1);
        assert_eq!(c.bank_of(5), 1);
        assert_eq!(c.bank_of(7), 3);
    }

    #[test]
    fn write_hit_marks_dirty_and_evicts() {
        let mut c = cache();
        c.fill(0, 0, line(0..8), true);
        assert_eq!(c.write(3, mk(99)), StoreOutcome::Written);
        assert_eq!(c.read(3).unwrap().word.bits(), 99);
        //

        // Fill a conflicting line: 32 lines * 8 words = 256-word stride.
        let victim = c
            .fill(256, 256, line(100..108), true)
            .expect("dirty victim");
        assert_eq!(victim.va, 0);
        assert_eq!(victim.data[3].word.bits(), 99);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_returns_no_victim() {
        let mut c = cache();
        c.fill(0, 0, line(0..8), true);
        assert!(c.fill(256, 256, line(0..8), true).is_none());
    }

    #[test]
    fn read_only_line_rejects_stores() {
        let mut c = cache();
        c.fill(0, 0, line(0..8), false);
        assert_eq!(c.write(0, mk(1)), StoreOutcome::NotWritable);
        assert_eq!(c.set_sync(0, true), StoreOutcome::NotWritable);
        // Reads still fine.
        assert!(c.read(0).is_some());
    }

    #[test]
    fn store_miss_reported() {
        let mut c = cache();
        assert_eq!(c.write(40, mk(1)), StoreOutcome::Miss);
        assert_eq!(c.stats().write_misses, 1);
    }

    #[test]
    fn sync_bit_update() {
        let mut c = cache();
        c.fill(0, 0, line(0..8), true);
        assert_eq!(c.set_sync(2, true), StoreOutcome::Written);
        assert!(c.read(2).unwrap().sync);
    }

    #[test]
    fn invalidate_returns_dirty_contents() {
        let mut c = cache();
        c.fill(0, 0, line(0..8), true);
        c.write(1, mk(55));
        let v = c.invalidate(0).expect("dirty line returned");
        assert_eq!(v.va, 0);
        assert_eq!(v.data[1].word.bits(), 55);
        assert!(!c.contains(0));
        // Invalidating again is a no-op.
        assert!(c.invalidate(0).is_none());
    }

    #[test]
    fn invalidate_clean_line_silent() {
        let mut c = cache();
        c.fill(0, 0, line(0..8), true);
        assert!(c.invalidate(0).is_none());
        assert!(!c.contains(0));
    }

    #[test]
    fn downgrade_blocks_later_stores() {
        let mut c = cache();
        c.fill(0, 0, line(0..8), true);
        c.write(1, mk(5));
        let v = c.downgrade(0).expect("was dirty");
        assert_eq!(v.data[1].word.bits(), 5);
        assert_eq!(c.write(1, mk(6)), StoreOutcome::NotWritable);
        assert!(c.contains(0));
    }

    /// A cache with valid, dirty and read-only lines round-trips through
    /// the checkpoint codec.
    #[test]
    fn cache_state_round_trips() {
        let mut c = cache();
        c.fill(0, 0, line(0..8), true);
        c.write(3, mk(99));
        c.fill(8, 8, line(8..16), false);
        let mut e = Enc::new();
        c.save_state(&mut e);
        let bytes = e.finish();
        let mut r = cache();
        let mut d = Dec::new(&bytes);
        r.load_state(&mut d).expect("load");
        assert_eq!(d.remaining(), 0);
        assert_eq!(r.stats(), c.stats());
        assert_eq!(r.peek(3).unwrap().word.bits(), 99);
        assert_eq!(r.write(8, mk(1)), StoreOutcome::NotWritable);
        // The restored dirty bit still produces a victim on conflict.
        assert!(r.fill(256, 256, line(0..8), true).is_some());
        // A different geometry refuses the checkpoint.
        let mut other = Cache::new(CacheConfig {
            banks: 4,
            words_per_bank: 32,
        });
        assert!(other.load_state(&mut Dec::new(&bytes)).is_err());
    }

    #[test]
    fn distinct_tags_conflict_correctly() {
        let mut c = cache();
        c.fill(0, 0, line(0..8), true);
        c.fill(256, 256, line(8..16), true); // same index, different tag
        assert!(!c.contains(0));
        assert!(c.contains(256));
        assert_eq!(c.read(256).unwrap().word.bits(), 8);
    }
}
