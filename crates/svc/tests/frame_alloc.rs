//! Proof that a frame costs the heap what it holds, not what it claims:
//! `read_frame` allocates for the bytes that arrive, not for the length
//! a frame header claims, and `decode_requests` builds at most
//! [`MAX_VALUES`] values of a full frame. A counting global allocator
//! tracks live heap bytes and their high-water mark around each call.
//! (This binary holds exactly one test so no concurrent test moves the
//! counters.)

use ami_scenario::json::MAX_VALUES;
use ami_svc::proto::{decode_requests, read_frame, write_frame, MAX_FRAME};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Cursor, ErrorKind};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct CountingAllocator;

impl CountingAllocator {
    fn grew(size: usize) {
        let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: delegates every operation to `System`; the counters are
// side-effect-only atomics.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::grew(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Count the new block before the old one is released, as a
        // moving realloc holds both.
        Self::grew(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Bytes by which the heap's high-water mark rose above its level at
/// the start of `work`.
fn peak_growth<T>(work: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = work();
    (out, PEAK.load(Ordering::Relaxed) - base)
}

#[test]
fn reading_and_decoding_a_frame_allocate_within_bounds() {
    const MIB: usize = 1 << 20;

    // A header claiming the largest frame, then 10 bytes and EOF.
    let mut wire = (MAX_FRAME as u32).to_be_bytes().to_vec();
    wire.extend_from_slice(b"0123456789");
    let mut reader = Cursor::new(wire);
    let (result, peak) = peak_growth(|| read_frame(&mut reader));
    let err = result.expect_err("a truncated frame is an error");
    assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
    assert!(
        peak < MIB,
        "a 10-byte remainder of a {MAX_FRAME}-byte frame allocated {peak} bytes"
    );

    // A complete largest frame still reads back intact. The buffer
    // doubles up to the frame's length, so its last growth holds the
    // half-size buffer and the full one at once: 1.5 frames at the
    // peak, counting every realloc as a move (plus harness noise).
    let payload = vec![b'x'; MAX_FRAME];
    let mut wire = Vec::with_capacity(MAX_FRAME + 4);
    write_frame(&mut wire, &payload).expect("a MAX_FRAME payload is accepted");
    let mut reader = Cursor::new(wire);
    let (frame, peak) = peak_growth(|| read_frame(&mut reader));
    let frame = frame.expect("the frame reads").expect("one frame");
    assert!(frame == payload, "the payload must come back unchanged");
    assert!(
        peak < MAX_FRAME + MAX_FRAME / 2 + MIB,
        "a {MAX_FRAME}-byte frame held {peak} bytes at its peak"
    );

    // The largest `[0,0,…]` frame, about 8.4 M values: the decode stops
    // at the bound's values and their array's last doubling, and holds
    // nothing per value past it.
    let zeros = (MAX_FRAME - 1) / 2;
    let frame = format!("[{}0]", "0,".repeat(zeros - 1));
    assert_eq!(frame.len(), MAX_FRAME - 1);
    let (result, peak) = peak_growth(|| decode_requests(&frame));
    let err = result.expect_err("a frame past the value bound is refused");
    assert!(err.to_string().contains(&MAX_VALUES.to_string()), "{err}");
    assert!(
        peak < 64 * MIB,
        "decoding a {}-byte frame held {peak} bytes at its peak",
        frame.len()
    );
}
