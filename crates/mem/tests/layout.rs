//! The packed SDRAM and cache arrays against plain array-of-structs
//! reference models, and their checkpoint decoders against hostile
//! input: `load_state` returns `Ok` or `Err` and never panics.

use mm_faults::{Dec, Enc};
use mm_isa::word::Word;
use mm_mem::cache::{CacheStats, StoreOutcome, Victim};
use mm_mem::{Cache, CacheConfig, MemWord, Sdram, SdramConfig, LINE_WORDS};
use proptest::prelude::*;

const LINE: usize = LINE_WORDS as usize;

fn mem_word(bits: u64, tag: bool, sync: bool, ecc: u8) -> MemWord {
    MemWord {
        word: Word::from_raw(bits, tag),
        sync,
        ecc,
    }
}

fn put_word(e: &mut Enc, w: MemWord) {
    e.u64(w.word.bits());
    e.bool(w.word.is_pointer());
    e.bool(w.sync);
    e.u8(w.ecc);
}

/// One line of the reference cache, one field per piece of state.
#[derive(Debug, Clone, Copy, Default)]
struct ModelLine {
    valid: bool,
    tag: u64,
    dirty: bool,
    writable: bool,
    pa_base: u64,
    data: [MemWord; LINE],
}

/// The direct-mapped cache as a plain array of line structs.
#[derive(Debug, Clone)]
struct ModelCache {
    lines: Vec<ModelLine>,
    stats: CacheStats,
}

type ModelVictim = (u64, u64, [MemWord; LINE]);

fn victim(v: Option<Victim>) -> Option<ModelVictim> {
    v.map(|v| (v.va, v.pa, v.data))
}

impl ModelCache {
    fn new(lines: usize) -> ModelCache {
        ModelCache {
            lines: vec![ModelLine::default(); lines],
            stats: CacheStats::default(),
        }
    }

    fn n(&self) -> u64 {
        self.lines.len() as u64
    }

    fn hit(&self, va: u64) -> Option<usize> {
        let idx = ((va / LINE_WORDS) % self.n()) as usize;
        let l = &self.lines[idx];
        (l.valid && l.tag == va / LINE_WORDS / self.n()).then_some(idx)
    }

    fn peek(&self, va: u64) -> Option<MemWord> {
        self.hit(va)
            .map(|i| self.lines[i].data[(va % LINE_WORDS) as usize])
    }

    fn read(&mut self, va: u64) -> Option<MemWord> {
        let w = self.peek(va);
        if w.is_some() {
            self.stats.read_hits += 1;
        } else {
            self.stats.read_misses += 1;
        }
        w
    }

    fn write(&mut self, va: u64, w: MemWord) -> StoreOutcome {
        let Some(i) = self.hit(va) else {
            self.stats.write_misses += 1;
            return StoreOutcome::Miss;
        };
        let l = &mut self.lines[i];
        if !l.writable {
            return StoreOutcome::NotWritable;
        }
        self.stats.write_hits += 1;
        l.data[(va % LINE_WORDS) as usize] = w;
        l.dirty = true;
        StoreOutcome::Written
    }

    fn set_sync(&mut self, va: u64, sync: bool) -> StoreOutcome {
        let Some(i) = self.hit(va) else {
            return StoreOutcome::Miss;
        };
        let l = &mut self.lines[i];
        if !l.writable {
            return StoreOutcome::NotWritable;
        }
        l.data[(va % LINE_WORDS) as usize].sync = sync;
        l.dirty = true;
        StoreOutcome::Written
    }

    fn poke(&mut self, va: u64, w: MemWord) -> bool {
        let Some(i) = self.hit(va) else {
            return false;
        };
        let l = &mut self.lines[i];
        l.data[(va % LINE_WORDS) as usize] = w;
        l.dirty = true;
        true
    }

    fn fill(
        &mut self,
        va: u64,
        pa: u64,
        data: [MemWord; LINE],
        writable: bool,
    ) -> Option<ModelVictim> {
        let n = self.n();
        let idx = ((va / LINE_WORDS) % n) as usize;
        let l = &mut self.lines[idx];
        let out = (l.valid && l.dirty).then(|| {
            self.stats.writebacks += 1;
            ((l.tag * n + idx as u64) * LINE_WORDS, l.pa_base, l.data)
        });
        *l = ModelLine {
            valid: true,
            tag: va / LINE_WORDS / n,
            dirty: false,
            writable,
            pa_base: pa & !(LINE_WORDS - 1),
            data,
        };
        out
    }

    fn invalidate(&mut self, va: u64) -> Option<ModelVictim> {
        let i = self.hit(va)?;
        let l = &mut self.lines[i];
        l.valid = false;
        let out = l
            .dirty
            .then_some((va & !(LINE_WORDS - 1), l.pa_base, l.data));
        l.dirty = false;
        self.stats.writebacks += u64::from(out.is_some());
        out
    }

    fn downgrade(&mut self, va: u64) -> Option<ModelVictim> {
        let i = self.hit(va)?;
        let l = &mut self.lines[i];
        l.writable = false;
        let out = l
            .dirty
            .then_some((va & !(LINE_WORDS - 1), l.pa_base, l.data));
        l.dirty = false;
        self.stats.writebacks += u64::from(out.is_some());
        out
    }

    /// The checkpoint format: line count, valid lines, statistics.
    fn save_state(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u64(self.n());
        e.usize(self.lines.iter().filter(|l| l.valid).count());
        for (idx, l) in self.lines.iter().enumerate().filter(|(_, l)| l.valid) {
            e.usize(idx);
            e.u64(l.tag);
            e.bool(l.dirty);
            e.bool(l.writable);
            e.u64(l.pa_base);
            for &w in &l.data {
                put_word(&mut e, w);
            }
        }
        let s = self.stats;
        for v in [
            s.read_hits,
            s.read_misses,
            s.write_hits,
            s.write_misses,
            s.writebacks,
        ] {
            e.u64(v);
        }
        e.finish()
    }
}

/// 8 lines of 8 words.
fn small_cache() -> Cache {
    Cache::new(CacheConfig {
        banks: 4,
        words_per_bank: 16,
    })
}

fn cache_bytes(c: &Cache) -> Vec<u8> {
    let mut e = Enc::new();
    c.save_state(&mut e);
    e.finish()
}

/// A cache operation: (kind, address, word fields, flag).
type Op = (u8, u64, (u64, bool, bool, u8), bool);

fn op() -> impl Strategy<Value = Op> {
    // 16 low and 16 top-of-address-space lines compete for the 8 slots,
    // so operations often hit and tags span the metadata cell's whole
    // high half.
    let va = prop_oneof![0u64..128, 0u64..128, (0u64..128).prop_map(|v| !v)];
    let word = (any::<u64>(), any::<bool>(), any::<bool>(), any::<u8>());
    (0u8..9, va, word, any::<bool>())
}

fn cache_ops(ops: &[Op]) -> Result<(), TestCaseError> {
    let mut c = small_cache();
    let mut m = ModelCache::new(8);
    for (step, &(kind, va, (bits, tag, sync, ecc), flag)) in ops.iter().enumerate() {
        let w = mem_word(bits, tag, sync, ecc);
        match kind {
            0 => {
                let data: [MemWord; LINE] = std::array::from_fn(|k| {
                    mem_word(
                        bits.rotate_left(k as u32 * 8),
                        tag ^ (k % 3 == 0),
                        sync,
                        ecc ^ k as u8,
                    )
                });
                let pa = bits ^ va;
                prop_assert_eq!(
                    victim(c.fill(va, pa, data, flag)),
                    m.fill(va, pa, data, flag),
                    "fill at step {}",
                    step
                );
            }
            1 => prop_assert_eq!(c.read(va), m.read(va), "read at step {}", step),
            2 => prop_assert_eq!(c.write(va, w), m.write(va, w), "write at step {}", step),
            3 => prop_assert_eq!(
                c.set_sync(va, flag),
                m.set_sync(va, flag),
                "set_sync at step {}",
                step
            ),
            4 => prop_assert_eq!(c.peek(va), m.peek(va), "peek at step {}", step),
            5 => prop_assert_eq!(c.poke(va, w), m.poke(va, w), "poke at step {}", step),
            6 => prop_assert_eq!(
                victim(c.invalidate(va)),
                m.invalidate(va),
                "invalidate at step {}",
                step
            ),
            7 => prop_assert_eq!(
                victim(c.downgrade(va)),
                m.downgrade(va),
                "downgrade at step {}",
                step
            ),
            _ => {
                let bytes = cache_bytes(&c);
                prop_assert_eq!(&bytes, &m.save_state(), "checkpoint at step {}", step);
                let mut fresh = small_cache();
                let mut d = Dec::new(&bytes);
                prop_assert!(fresh.load_state(&mut d).is_ok());
                prop_assert_eq!(d.remaining(), 0);
                c = fresh;
            }
        }
        prop_assert_eq!(c.stats(), m.stats, "stats at step {}", step);
        prop_assert_eq!(c.contains(va), m.hit(va).is_some());
    }
    prop_assert_eq!(cache_bytes(&c), m.save_state());
    Ok(())
}

/// A lived-in 64-word SDRAM: runs of equal words, pokes and an
/// un-scrubbed bit flip.
fn sdram_image(pokes: &[(u64, u64, bool, bool)], flip: u64) -> (Sdram, Vec<u8>) {
    let cfg = SdramConfig {
        capacity_words: 64,
        ..SdramConfig::default()
    };
    let mut d = Sdram::new(cfg);
    for &(addr, bits, tag, sync) in pokes {
        d.poke(
            addr % 64,
            MemWord::with_sync(Word::from_raw(bits, tag), sync),
        );
    }
    d.inject_bit_flip(flip % 64, (flip % 61) as u32);
    let _ = d.read(0, 8, 8);
    let mut e = Enc::new();
    d.save_state(&mut e);
    (d, e.finish())
}

fn fresh_sdram() -> Sdram {
    Sdram::new(SdramConfig {
        capacity_words: 64,
        ..SdramConfig::default()
    })
}

/// Load every truncation (all must fail) and every single-bit flip (any
/// result but a panic) of `bytes` into `target()`.
fn hostile_variants<T>(
    bytes: &[u8],
    target: impl Fn() -> T,
    load: impl Fn(&mut T, &mut Dec<'_>) -> bool,
) {
    for len in 0..bytes.len() {
        assert!(
            !load(&mut target(), &mut Dec::new(&bytes[..len])),
            "truncation to {len} loaded"
        );
    }
    let mut flipped = bytes.to_vec();
    for bit in 0..bytes.len() * 8 {
        flipped[bit / 8] ^= 1 << (bit % 8);
        let _ = load(&mut target(), &mut Dec::new(&flipped));
        flipped[bit / 8] ^= 1 << (bit % 8);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Results, victims, statistics and checkpoint bytes of the packed
    /// cache equal the array-of-structs model's on random operations.
    #[test]
    fn cache_matches_array_of_structs_model(ops in prop::collection::vec(op(), 1..120)) {
        cache_ops(&ops)?;
    }

    /// The SDRAM's checkpoint round-trips, and matches a word-by-word
    /// run-length encoding of what `peek` returns.
    #[test]
    fn sdram_checkpoint_matches_word_model(
        pokes in prop::collection::vec((0u64..64, 0u64..4, any::<bool>(), any::<bool>()), 0..40),
        flip in any::<u64>(),
    ) {
        let (d, bytes) = sdram_image(&pokes, flip);
        let words: Vec<MemWord> = (0..64).map(|a| d.peek(a)).collect();
        let mut e = Enc::new();
        e.u64(64);
        let mut i = 0;
        while i < words.len() {
            let run = words[i..].iter().take_while(|&&w| w == words[i]).count();
            e.u64(run as u64);
            put_word(&mut e, words[i]);
            i += run;
        }
        e.u64(0);
        let model = e.finish();
        prop_assert_eq!(&bytes[..model.len()], &model[..]);
        let mut r = fresh_sdram();
        prop_assert!(r.load_state(&mut Dec::new(&bytes)).is_ok());
        for a in 0..64 {
            prop_assert_eq!(r.peek(a), words[a as usize]);
        }
    }

    /// Arbitrary bytes, raw or behind a matching geometry header, never
    /// panic either decoder.
    #[test]
    fn load_state_survives_arbitrary_bytes(
        body in prop::collection::vec(any::<u8>(), 0..300),
        header in any::<bool>(),
    ) {
        let image = |lines_or_words: u64| {
            let mut b = if header { lines_or_words.to_le_bytes().to_vec() } else { Vec::new() };
            b.extend_from_slice(&body);
            b
        };
        let _ = fresh_sdram().load_state(&mut Dec::new(&image(64)));
        let _ = small_cache().load_state(&mut Dec::new(&image(8)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every truncation and single-bit flip of a valid SDRAM image.
    #[test]
    fn sdram_load_state_survives_truncations_and_flips(
        pokes in prop::collection::vec((0u64..64, 0u64..4, any::<bool>(), any::<bool>()), 0..20),
        flip in any::<u64>(),
    ) {
        let (_, bytes) = sdram_image(&pokes, flip);
        hostile_variants(&bytes, fresh_sdram, |d, dec| d.load_state(dec).is_ok());
    }

    /// Every truncation and single-bit flip of a valid cache image.
    #[test]
    fn cache_load_state_survives_truncations_and_flips(ops in prop::collection::vec(op(), 1..20)) {
        let mut c = small_cache();
        for &(kind, va, (bits, tag, sync, ecc), flag) in &ops {
            let w = mem_word(bits, tag, sync, ecc);
            match kind % 3 {
                0 => drop(c.fill(va, bits, [w; LINE], flag)),
                1 => drop(c.write(va, w)),
                _ => drop(c.read(va)),
            }
        }
        hostile_variants(&cache_bytes(&c), small_cache, |c, dec| c.load_state(dec).is_ok());
    }
}
