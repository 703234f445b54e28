//! Fixture: P001 true negative — the typed PteFlags API.

pub fn trap(pte: Pte) -> Pte {
    pte.set(PteFlags::RESERVED | PteFlags::NO_CACHE)
}

pub fn without_huge(pte: Pte) -> PteFlags {
    pte.flags() & !PteFlags::HUGE
}

/// Words that merely contain the letters "pte" are not page-table words.
pub fn tally(attempted: u64, accepted: u64) -> u64 {
    (attempted & 0xff) | (accepted << 8)
}
