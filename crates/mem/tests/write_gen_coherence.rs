//! Regression suite for the write-generation contract (vlint rule W001):
//! the memoized per-frame content hashes and zero bits must stay coherent
//! through *every* public mutator — including the Rowhammer `flip_bit`
//! path — and across snapshot save/restore, where the cache is reset
//! wholesale instead of bumped per frame.

use vusion_mem::{content_hash, FrameId, PhysAddr, PhysMemory, PAGE_SIZE};
use vusion_snapshot::{Reader, Snapshot, Writer};

const FRAMES: usize = 4;

fn page(fill: u8) -> [u8; PAGE_SIZE as usize] {
    let mut p = [fill; PAGE_SIZE as usize];
    p[7] = fill.wrapping_add(3);
    p
}

/// Warms every memoized value so a later stale entry cannot hide behind
/// a cold cache.
fn warm(m: &PhysMemory) {
    for i in 0..m.frame_count() {
        let _ = m.hash_page(FrameId(i as u64));
        let _ = m.is_zero(FrameId(i as u64));
    }
}

/// The observable contract: memoization must be invisible. Every frame's
/// hash equals a fresh computation and every zero bit equals a fresh
/// scan.
fn assert_coherent(m: &PhysMemory, ctx: &str) {
    for i in 0..m.frame_count() {
        let f = FrameId(i as u64);
        assert_eq!(
            m.hash_page(f),
            content_hash(m.page(f)),
            "{ctx}: stale hash on frame {i}"
        );
        assert_eq!(
            m.is_zero(f),
            m.page(f).iter().all(|&b| b == 0),
            "{ctx}: stale zero bit on frame {i}"
        );
    }
}

#[test]
fn every_public_mutator_keeps_hashes_coherent() {
    let mut m = PhysMemory::new(FRAMES);
    warm(&m);

    m.write_byte(PhysAddr(3), 7);
    assert_coherent(&m, "write_byte");
    warm(&m);

    m.write_u64(PhysAddr(PAGE_SIZE + 16), 0xdead_beef_cafe_f00d);
    assert_coherent(&m, "write_u64");
    warm(&m);

    m.write_page(FrameId(2), &page(0x42));
    assert_coherent(&m, "write_page");
    warm(&m);

    m.copy_page(FrameId(2), FrameId(3));
    assert_coherent(&m, "copy_page");
    warm(&m);

    m.flip_bit(PhysAddr(2 * PAGE_SIZE + 9), 5);
    assert_coherent(&m, "flip_bit");
    warm(&m);

    m.move_page(FrameId(3), FrameId(1));
    assert_coherent(&m, "move_page");
    warm(&m);

    m.zero_page(FrameId(2));
    assert_coherent(&m, "zero_page");

    // Writing a page back to all-zeroes dematerializes it; the cached
    // non-zero hash must not survive.
    m.write_page(FrameId(3), &[0; PAGE_SIZE as usize]);
    assert_coherent(&m, "write_page(zeroes)");
}

#[test]
fn snapshot_restore_drops_every_memoized_value() {
    let mut m = PhysMemory::new(FRAMES);
    m.write_page(FrameId(0), &page(0xAA));
    m.write_page(FrameId(1), &page(0x5A));
    warm(&m);

    let mut w = Writer::new();
    m.save(&mut w);
    let bytes = w.into_bytes();

    // Diverge after the save and re-warm: the hot cache now describes a
    // state the snapshot does not contain.
    m.write_page(FrameId(0), &page(0x11));
    m.flip_bit(PhysAddr(PAGE_SIZE + 3), 2);
    m.zero_page(FrameId(1));
    warm(&m);

    // In-place restore must reset the memoization wholesale (this is the
    // one mutation path that bumps no per-frame generation — see the
    // vlint W001 allowance in phys.rs).
    let mut r = Reader::new(&bytes);
    m.load(&mut r).expect("restore");
    assert_coherent(&m, "restore over hot cache");

    // And the restored image is byte- and hash-identical to the same
    // snapshot loaded into a fresh memory with cold caches.
    let mut fresh = PhysMemory::new(FRAMES);
    let mut r2 = Reader::new(&bytes);
    fresh.load(&mut r2).expect("restore into fresh");
    for i in 0..FRAMES {
        let f = FrameId(i as u64);
        assert_eq!(m.page(f), fresh.page(f), "content diverged on frame {i}");
        assert_eq!(
            m.hash_page(f),
            fresh.hash_page(f),
            "hash diverged on frame {i}"
        );
    }
}

/// `move_page(src, dst)` must be observably identical to
/// `copy_page(src, dst)` + `zero_page(src)`: bytes, write generations,
/// hashes and zero bits of both frames — whether or not the source's memo
/// was warm, and for materialized as well as lazily-zero sources.
#[test]
fn move_page_equals_copy_then_zero() {
    let cases: [(&str, Option<[u8; PAGE_SIZE as usize]>, bool); 4] = [
        ("warm content", Some(page(0x42)), true),
        ("cold content", Some(page(0x17)), false),
        ("warm zero", None, true),
        ("cold zero", None, false),
    ];
    for (ctx, src_content, warm_first) in cases {
        let mut moved = PhysMemory::new(FRAMES);
        let mut copied = PhysMemory::new(FRAMES);
        for m in [&mut moved, &mut copied] {
            if let Some(p) = &src_content {
                m.write_page(FrameId(0), p);
            }
            // A destination with prior content and a warm memo.
            m.write_page(FrameId(1), &page(0x99));
            if warm_first {
                warm(m);
            } else {
                let _ = m.hash_page(FrameId(1));
            }
        }
        moved.move_page(FrameId(0), FrameId(1));
        copied.copy_page(FrameId(0), FrameId(1));
        copied.zero_page(FrameId(0));
        for i in 0..FRAMES {
            let f = FrameId(i as u64);
            assert_eq!(moved.page(f), copied.page(f), "{ctx}: bytes of frame {i}");
            assert_eq!(
                moved.info(f).write_gen,
                copied.info(f).write_gen,
                "{ctx}: write_gen of frame {i}"
            );
            assert_eq!(
                moved.hash_page(f),
                copied.hash_page(f),
                "{ctx}: hash of frame {i}"
            );
            assert_eq!(
                moved.is_zero(f),
                copied.is_zero(f),
                "{ctx}: zero bit of frame {i}"
            );
        }
        assert_coherent(&moved, ctx);
    }
}
