//! Fixture: P001 true positive — raw u64 PTE twiddling outside the MMU.

pub fn trap(pte: u64) -> u64 {
    pte | (1u64 << 51)
}

pub fn low_flags(raw_pte: u64) -> u64 {
    raw_pte & 0xfff
}

pub fn walk(leaf_ptes: u64) -> u64 {
    leaf_ptes >> 12
}
