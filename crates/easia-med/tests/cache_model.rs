//! The one cache against a naive model.
//!
//! Random sequences of `put`, `get`, `take`, `peek` and `retain` run on
//! [`easia_med::Cache`] and on a `Vec` kept in order of last use, oldest
//! first, that is searched front to back for everything. After every
//! step the two must agree: what a lookup found (the value and the
//! instant it was stored, or stale, or a miss), how many entries a
//! `retain` dropped, the length and the hit/miss counts.
//!
//! The prefetch shape — only `put`, `peek` and `take`, at the prefetch
//! bound of 16 — is also held to the FIFO the prefetch cache used to be:
//! least recently used evicts exactly what first-in-first-out evicts
//! when lookups never count as uses.
//!
//! The operation-result shape runs link, unlink and relink steps beside
//! the lookups: each key a dataset whose version is the generation of
//! its current link. A lookup may only hit what was stored since that
//! link, and a dataset not linked is neither looked up nor stored.

use easia_med::{Cache, CacheStats, Lookup};
use proptest::prelude::*;
use std::collections::VecDeque;

/// One step: `(operation, key, version, value)`.
type Step = (u8, u8, u64, u32);

/// A stored entry of the model: `(key, version, stored_at, value)`.
type Slot = (u8, u64, f64, u32);

#[derive(Clone, Copy, PartialEq)]
enum Read {
    Get,
    Take,
    Peek,
}

/// Entries oldest use first.
struct Model {
    capacity: usize,
    slots: Vec<Slot>,
    stats: CacheStats,
}

impl Model {
    fn put(&mut self, key: u8, version: u64, at: f64, value: u32) {
        self.slots.retain(|s| s.0 != key);
        self.slots.push((key, version, at, value));
        if self.slots.len() > self.capacity {
            self.slots.remove(0);
        }
    }

    fn read(&mut self, how: Read, key: u8, version: u64) -> Lookup<(u32, f64)> {
        let counted = how != Read::Peek;
        let Some(i) = self.slots.iter().position(|s| s.0 == key) else {
            self.stats.misses += u64::from(counted);
            return Lookup::Miss;
        };
        let slot = self.slots[i];
        if slot.1 != version {
            if counted {
                self.stats.misses += 1;
                self.slots.remove(i);
            }
            return Lookup::Stale;
        }
        if counted {
            self.stats.hits += 1;
            self.slots.remove(i);
        }
        if how == Read::Get {
            self.slots.push(slot);
        }
        Lookup::Hit((slot.3, slot.2))
    }
}

fn value_of<V: Copy>(e: &easia_med::cache::Entry<V>) -> (V, f64) {
    (e.value, e.stored_at)
}

/// Apply `steps` to a store and the model, comparing every answer.
fn agree(capacity: usize, steps: &[Step], kinds: u8) -> Result<(), TestCaseError> {
    let mut cache: Cache<u8, u32> = Cache::new(capacity);
    let mut model = Model {
        capacity,
        slots: Vec::new(),
        stats: CacheStats::default(),
    };
    for (at, &(op, key, version, value)) in steps.iter().enumerate() {
        let at = at as f64;
        match op % kinds {
            0 => {
                cache.put(key, version, at, value);
                model.put(key, version, at, value);
            }
            1 => {
                let found = cache.peek(&key, version).map(value_of);
                prop_assert_eq!(found, model.read(Read::Peek, key, version));
            }
            2 => {
                let found = cache.take(&key, version).map(|e| value_of(&e));
                prop_assert_eq!(found, model.read(Read::Take, key, version));
            }
            3 => {
                let found = cache.get(&key, version).map(value_of);
                prop_assert_eq!(found, model.read(Read::Get, key, version));
            }
            _ => {
                let keep = |k: u8, v: u32| (u32::from(k) + v) % 3 != value % 3;
                let before = model.slots.len();
                model.slots.retain(|s| keep(s.0, s.3));
                let gone = cache.retain(|k, v| keep(*k, *v));
                prop_assert_eq!(gone, before - model.slots.len());
            }
        }
        prop_assert_eq!(cache.len(), model.slots.len());
        prop_assert_eq!(cache.stats(), model.stats);
    }
    Ok(())
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec((0u8..5, 0u8..8, 0u64..3, 0u32..100), 0..300)
}

proptest! {
    #[test]
    fn the_store_agrees_with_the_naive_model(capacity in 1usize..7, steps in steps()) {
        agree(capacity, &steps, 5)?;
    }

    #[test]
    fn a_result_is_served_only_within_its_link_generation(
        capacity in 1usize..7,
        steps in steps(),
    ) {
        let mut cache: Cache<u8, u32> = Cache::new(capacity);
        let mut model = Model {
            capacity,
            slots: Vec::new(),
            stats: CacheStats::default(),
        };
        // Each dataset's current link generation, and what was stored for
        // it since that link.
        let (mut last, mut linked, mut stored) = (0, [None; 8], [None; 8]);
        for (at, &(op, key, _, value)) in steps.iter().enumerate() {
            let k = usize::from(key);
            stored[k] = match op {
                // A link, or a relink of a linked dataset: a new generation.
                0 => {
                    last += 1;
                    linked[k] = Some(last);
                    None
                }
                1 => {
                    linked[k] = None;
                    None
                }
                _ => {
                    let Some(generation) = linked[k] else {
                        continue;
                    };
                    let found = cache.get(&key, generation).map(value_of);
                    prop_assert_eq!(found, model.read(Read::Get, key, generation));
                    if let Lookup::Hit((v, _)) = found {
                        prop_assert_eq!(Some(v), stored[k]);
                        continue;
                    }
                    cache.put(key, generation, at as f64, value);
                    model.put(key, generation, at as f64, value);
                    Some(value)
                }
            };
            prop_assert_eq!(cache.len(), model.slots.len());
            prop_assert_eq!(cache.stats(), model.stats);
        }
    }

    #[test]
    fn prefetch_shaped_use_evicts_in_insertion_order(steps in steps()) {
        // put, peek and take only, over twice as many keys as the bound.
        let wide = |&(op, key, v, x): &Step| (op, key * 4 + (x % 4) as u8, v, x);
        let steps: Vec<Step> = steps.iter().map(wide).collect();
        agree(16, &steps, 3)?;
        // The FIFO the prefetch cache was: a re-insert moves to the back,
        // a full queue drops its front.
        let mut cache: Cache<u8, u32> = Cache::new(16);
        let mut fifo: VecDeque<(u8, u64, u32)> = VecDeque::new();
        for &(op, key, version, value) in &steps {
            match op % 3 {
                0 => {
                    cache.put(key, version, 0.0, value);
                    fifo.retain(|e| e.0 != key);
                    if fifo.len() >= 16 {
                        fifo.pop_front();
                    }
                    fifo.push_back((key, version, value));
                }
                1 => {
                    let parked = fifo.iter().any(|e| e.0 == key && e.1 == version);
                    prop_assert_eq!(matches!(cache.peek(&key, version), Lookup::Hit(_)), parked);
                }
                _ => {
                    let found = cache.take(&key, version).map(|e| e.value);
                    let expected = match fifo.iter().position(|e| e.0 == key) {
                        None => Lookup::Miss,
                        Some(i) => {
                            let e = fifo.remove(i).unwrap();
                            if e.1 == version { Lookup::Hit(e.2) } else { Lookup::Stale }
                        }
                    };
                    prop_assert_eq!(found, expected);
                }
            }
            // Both hold the same keys after every step.
            let mut queued: Vec<u8> = fifo.iter().map(|e| e.0).collect();
            queued.sort_unstable();
            let held = (0..u8::MAX).filter(|k| !matches!(cache.peek(k, u64::MAX), Lookup::Miss));
            prop_assert_eq!(held.collect::<Vec<u8>>(), queued);
        }
    }
}
