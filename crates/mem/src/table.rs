//! A deterministic open-addressed hash table keyed by `u64`.
//!
//! The simulator's hot lookup structures — the TLB index and the fusion
//! engines' per-frame and per-page scan state — share this one table:
//! a fixed Fibonacci hash picks a home slot, collisions probe linearly,
//! and deletion shifts later members of the probe run back instead of
//! leaving tombstones. Every operation is O(1) expected and allocation
//! free until the table grows.
//!
//! `std`'s hash maps are out (vlint D002): their per-process random seed
//! would make slot order differ run to run. Here slot placement is a pure
//! function of the keys and the operation history, so even iteration is
//! reproducible — but it follows slot order, not key order, so callers
//! sort ([`U64Map::sorted`]) before anything that reaches a snapshot or
//! decides an order.
//!
//! Slots are plain `(key, value)` pairs: the key [`u64::MAX`] marks an
//! empty slot, so no `Option` tag pads them, and the table grows before it
//! passes three quarters full. The marker is still a valid key — its
//! entry lives in a side slot — so the table is total over `u64`.

/// Fibonacci hashing multiplier (2^64 / golden ratio). Fixed, so slot
/// placement is a pure function of the keys.
const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// Key of an empty slot.
const EMPTY: u64 = u64::MAX;

/// Slot count of the first allocation; it doubles from there.
const MIN_SLOTS: usize = 8;

/// An open-addressed `u64 → V` map with deterministic slot placement.
pub struct U64Map<V> {
    /// Power-of-two length (or empty), at most three quarters full.
    slots: Vec<(u64, V)>,
    /// `64 - log2(slots.len())`: the hash keeps the product's top bits.
    shift: u32,
    /// Occupied slots.
    len: usize,
    /// The entry whose key equals the empty marker.
    at_empty: Option<V>,
}

impl<V: Copy + Default> Default for U64Map<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Copy + Default> U64Map<V> {
    /// An empty map; it allocates on the first insert.
    pub const fn new() -> Self {
        Self {
            slots: Vec::new(),
            shift: 64,
            len: 0,
            at_empty: None,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len + usize::from(self.at_empty.is_some())
    }

    /// Whether the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(HASH_MUL) >> self.shift) as usize
    }

    /// `Ok(slot)` holding `key`, or `Err(slot)` where it would go. Needs
    /// allocated slots and `key != EMPTY`; the table is never full, so the
    /// probe always ends.
    fn find(&self, key: u64) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        loop {
            let k = self.slots[i].0;
            if k == key {
                return Ok(i);
            }
            if k == EMPTY {
                return Err(i);
            }
            i = (i + 1) & mask;
        }
    }

    /// The slot holding `key`, if any.
    fn slot_of(&self, key: u64) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        self.find(key).ok()
    }

    /// The value stored under `key`.
    pub fn get(&self, key: u64) -> Option<&V> {
        if key == EMPTY {
            return self.at_empty.as_ref();
        }
        self.slot_of(key).map(|i| &self.slots[i].1)
    }

    /// Mutable access to the value stored under `key`.
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        if key == EMPTY {
            return self.at_empty.as_mut();
        }
        self.slot_of(key).map(|i| &mut self.slots[i].1)
    }

    /// Whether `key` has an entry.
    pub fn contains_key(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Stores `value` under `key`; returns the value it replaced.
    pub fn insert(&mut self, key: u64, value: V) -> Option<V> {
        if key == EMPTY {
            return self.at_empty.replace(value);
        }
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        match self.find(key) {
            Ok(i) => Some(std::mem::replace(&mut self.slots[i].1, value)),
            Err(i) => {
                self.slots[i] = (key, value);
                self.len += 1;
                None
            }
        }
    }

    /// The value under `key`, after storing `value` there if the key had
    /// no entry; the flag says whether it did store. One probe.
    pub fn get_or_insert(&mut self, key: u64, value: V) -> (&mut V, bool) {
        if key == EMPTY {
            let inserted = self.at_empty.is_none();
            return (self.at_empty.get_or_insert(value), inserted);
        }
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        match self.find(key) {
            Ok(i) => (&mut self.slots[i].1, false),
            Err(i) => {
                self.slots[i] = (key, value);
                self.len += 1;
                (&mut self.slots[i].1, true)
            }
        }
    }

    /// Removes `key`'s entry and returns its value.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        self.remove_if(key, |_| true)
    }

    /// Removes `key`'s entry if `pred` accepts its value, and returns the
    /// value. One probe.
    pub fn remove_if(&mut self, key: u64, pred: impl FnOnce(&V) -> bool) -> Option<V> {
        if key == EMPTY {
            return self.at_empty.take_if(|v| pred(v));
        }
        let i = self.slot_of(key)?;
        let value = self.slots[i].1;
        if !pred(&value) {
            return None;
        }
        self.remove_at(i);
        Some(value)
    }

    /// Empties slot `hole` by backward-shift deletion: later members of
    /// the probe run move up, so no tombstones are needed.
    fn remove_at(&mut self, mut hole: usize) {
        let mask = self.slots.len() - 1;
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            let key = self.slots[i].0;
            if key == EMPTY {
                break;
            }
            // The entry at `i` may fill the hole iff the hole lies on its
            // probe path, cyclically between its home slot and `i`.
            if (i.wrapping_sub(self.home(key)) & mask) >= (i.wrapping_sub(hole) & mask) {
                self.slots[hole] = self.slots[i];
                hole = i;
            }
        }
        self.slots[hole] = (EMPTY, V::default());
        self.len -= 1;
    }

    fn grow(&mut self) {
        let size = (self.slots.len() * 2).max(MIN_SLOTS);
        let old = std::mem::replace(&mut self.slots, vec![(EMPTY, V::default()); size]);
        self.shift = 64 - size.trailing_zeros();
        for (key, value) in old.into_iter().filter(|s| s.0 != EMPTY) {
            if let Err(i) = self.find(key) {
                self.slots[i] = (key, value);
            }
        }
    }

    /// Removes every entry and keeps the allocation.
    pub fn clear(&mut self) {
        if self.len > 0 {
            self.slots.fill((EMPTY, V::default()));
            self.len = 0;
        }
        self.at_empty = None;
    }

    /// Keeps only the entries for which `keep` returns `true`. O(slots):
    /// the kept entries are re-placed into a fresh slot array.
    pub fn retain(&mut self, mut keep: impl FnMut(u64, &mut V) -> bool) {
        if let Some(v) = self.at_empty.as_mut() {
            if !keep(EMPTY, v) {
                self.at_empty = None;
            }
        }
        if self.len == 0 {
            return;
        }
        let size = self.slots.len();
        let old = std::mem::replace(&mut self.slots, vec![(EMPTY, V::default()); size]);
        self.len = 0;
        for (key, mut value) in old.into_iter().filter(|s| s.0 != EMPTY) {
            if keep(key, &mut value) {
                if let Err(i) = self.find(key) {
                    self.slots[i] = (key, value);
                    self.len += 1;
                }
            }
        }
    }

    /// Every entry, in slot order — a function of the keys and the
    /// operation history, not of key order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> + '_ {
        let slotted = self
            .slots
            .iter()
            .filter(|s| s.0 != EMPTY)
            .map(|(k, v)| (*k, v));
        slotted.chain(self.at_empty.iter().map(|v| (EMPTY, v)))
    }

    /// Every entry, in ascending key order.
    pub fn sorted(&self) -> Vec<(u64, V)> {
        let mut entries: Vec<(u64, V)> = self.iter().map(|(k, v)| (k, *v)).collect();
        entries.sort_unstable_by_key(|e| e.0);
        entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use vusion_rng::rngs::StdRng;
    use vusion_rng::{RngExt, SeedableRng};

    /// The table against `BTreeMap` on a seeded operation stream: same
    /// return value after every operation, same sorted contents at the
    /// end. Keys come from small ranges (and include the empty marker) so
    /// collisions, growth, wrap-around probe runs and backward shifts all
    /// happen often.
    #[test]
    fn matches_btreemap_reference() {
        for (seed, span) in [(1u64, 12u64), (2, 40), (3, 300)] {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x7ab1e);
            let mut map: U64Map<u32> = U64Map::new();
            let mut reference: BTreeMap<u64, u32> = BTreeMap::new();
            for step in 0..12_000 {
                let key = match rng.random_range(0..20u32) {
                    0 => EMPTY,
                    1 => EMPTY - rng.random_range(0..4u64),
                    _ => rng.random_range(0..span) * 0x1_0000,
                };
                let value = rng.random_range(0..1000u32);
                match rng.random_range(0..100u32) {
                    0..40 => assert_eq!(
                        map.insert(key, value),
                        reference.insert(key, value),
                        "step {step}"
                    ),
                    40..55 => {
                        assert_eq!(map.remove(key), reference.remove(&key), "step {step}")
                    }
                    55..60 => {
                        let odd = |v: &u32| v % 2 == 1;
                        let expected = match reference.get(&key) {
                            Some(v) if odd(v) => reference.remove(&key),
                            _ => None,
                        };
                        assert_eq!(map.remove_if(key, odd), expected, "step {step}");
                    }
                    60..65 => {
                        let had = reference.contains_key(&key);
                        let expected = *reference.entry(key).or_insert(value);
                        let (got, inserted) = map.get_or_insert(key, value);
                        assert_eq!((*got, inserted), (expected, !had), "step {step}");
                    }
                    65..85 => {
                        assert_eq!(map.get(key), reference.get(&key), "step {step}");
                        assert_eq!(map.contains_key(key), reference.contains_key(&key));
                    }
                    85..93 => {
                        if let Some(v) = map.get_mut(key) {
                            *v += 1;
                        }
                        if let Some(v) = reference.get_mut(&key) {
                            *v += 1;
                        }
                    }
                    93..99 => {
                        let cut = rng.random_range(0..1000u32);
                        map.retain(|_, v| {
                            *v ^= 1;
                            *v < cut
                        });
                        reference.retain(|_, v| {
                            *v ^= 1;
                            *v < cut
                        });
                    }
                    _ => {
                        map.clear();
                        reference.clear();
                    }
                }
                assert_eq!(map.len(), reference.len(), "step {step}");
                assert_eq!(map.is_empty(), reference.is_empty(), "step {step}");
            }
            let expected: Vec<(u64, u32)> = reference.into_iter().collect();
            assert_eq!(map.sorted(), expected);
        }
    }

    /// A counting multiset keyed by arbitrary `u64` values — the shape of
    /// a content-hash filter — works when a value equals the empty marker.
    #[test]
    fn multiset_counts_a_key_equal_to_the_empty_marker() {
        let mut counts: U64Map<u32> = U64Map::new();
        for key in [EMPTY, 7, EMPTY, 0, EMPTY] {
            *counts.get_or_insert(key, 0).0 += 1;
        }
        assert_eq!(counts.get(EMPTY), Some(&3));
        assert_eq!(counts.len(), 3);
        assert_eq!(counts.sorted(), vec![(0, 1), (7, 1), (EMPTY, 3)]);
        // Growth re-places the slotted entries and leaves the side entry.
        for k in 100..200 {
            counts.insert(k, 1);
        }
        assert_eq!(counts.get(EMPTY), Some(&3));
        assert_eq!(counts.remove(EMPTY), Some(3));
        assert!(!counts.contains_key(EMPTY));
        assert_eq!(counts.len(), 102);
    }

    #[test]
    fn load_stays_at_most_three_quarters() {
        let mut map: U64Map<u64> = U64Map::new();
        for k in 0..1000u64 {
            map.insert(k, k);
            assert!(
                map.len * 4 <= map.slots.len() * 3,
                "{} in {}",
                map.len,
                map.slots.len()
            );
        }
        assert_eq!(map.slots.len(), 2048);
    }
}
