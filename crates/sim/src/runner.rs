//! Seed-partitioned parallel execution with a serial-equality guarantee.
//!
//! Every sweep and Monte-Carlo study in the toolkit is *independent
//! work*: cell `(i)` of a grid or replication `k` of a study depends
//! only on its own inputs (and its own seed), never on a sibling. This
//! module exploits that to spread the work across OS threads while
//! keeping the toolkit's determinism contract intact:
//!
//! * work item `i` computes `f(i, item)` — a pure function of the index
//!   and input, never of scheduling;
//! * results are merged back **in index order**, so downstream consumers
//!   (e.g. [`summarize`](crate::summarize), which folds floats in sample
//!   order) see the byte-identical vector a serial loop would produce.
//!
//! Together these make parallel execution bit-exact with serial at any
//! thread count — a property enforced by `tests/determinism.rs` at 1, 2
//! and 8 threads.
//!
//! # Thread-count policy
//!
//! [`thread_count`] reads the `AMBIENCE_THREADS` environment variable
//! (any integer ≥ 1); when unset it uses
//! [`std::thread::available_parallelism`]. A set-but-invalid value
//! (`0`, `-1`, `abc`, empty) is a configuration error and panics with a
//! clear message — silently falling back would run a determinism
//! experiment at a thread count the operator never asked for. At 1 the
//! implementation runs the plain serial loop on the calling thread — no
//! pool, no channels — so CI boxes and laptops behave identically to
//! the pre-parallel toolkit.
//!
//! # Example
//!
//! ```
//! use ami_sim::runner::{par_map_indexed, par_map_indexed_threads};
//!
//! let squares = par_map_indexed(&[1u64, 2, 3, 4], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! // Any explicit thread count produces the identical result.
//! let with_8 = par_map_indexed_threads(8, &[1u64, 2, 3, 4], |_, &x| x * x);
//! assert_eq!(squares, with_8);
//! ```

#![deny(missing_docs)]

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Environment variable overriding the worker-thread count.
pub const THREADS_ENV: &str = "AMBIENCE_THREADS";

/// The worker-thread count: `AMBIENCE_THREADS` if set (which must then
/// be an integer ≥ 1), else [`std::thread::available_parallelism`],
/// else 1.
///
/// # Panics
///
/// Panics if `AMBIENCE_THREADS` is set but is not an integer ≥ 1 — a
/// misconfigured knob must fail loudly, not silently pick its own
/// parallelism.
pub fn thread_count() -> usize {
    let raw = std::env::var_os(THREADS_ENV).map(|v| v.to_string_lossy().into_owned());
    thread_count_from(raw.as_deref())
}

/// [`thread_count`] with the environment read factored out, so the
/// rejection rules are testable without mutating process-global state.
fn thread_count_from(raw: Option<&str>) -> usize {
    match raw {
        Some(raw) => {
            // Only plain decimal digits: `parse::<usize>` alone would
            // also accept `+8` or surrounding whitespace, which the
            // documented contract does not promise and which downstream
            // tooling would mis-log.
            let plain = !raw.is_empty() && raw.bytes().all(|b| b.is_ascii_digit());
            match raw.parse::<usize>() {
                Ok(n) if plain && n >= 1 => n,
                _ => panic!("{THREADS_ENV} must be an integer >= 1, got {raw:?}"),
            }
        }
        None => std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
    }
}

/// Maps `f` over `items` with the default [`thread_count`], returning
/// results in item order. See [`par_map_indexed_threads`].
pub fn par_map_indexed<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    par_map_indexed_threads(thread_count(), items, f)
}

/// Maps `f` over `items` on `threads` workers, returning results in
/// item order — bit-exact with the serial `items.iter().enumerate()`
/// loop as long as `f` is a pure function of `(index, item)`.
///
/// Work is distributed by atomic index-stealing, so uneven cell costs
/// (a dying network simulates slower than a healthy one) cannot starve
/// a worker; the merge order is fixed by the result slot, not by
/// completion order.
///
/// # Panics
///
/// Panics if `threads` is 0, or propagates the first panic raised by
/// `f` on any worker.
pub fn par_map_indexed_threads<T, U, F>(threads: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    assert!(threads > 0, "at least one worker thread");
    if threads == 1 || items.len() <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(idx, item)| f(idx, item))
            .collect();
    }

    let next = AtomicUsize::new(0);
    let workers = threads.min(items.len());
    // Contention-free merge: each worker accumulates `(index, value)`
    // pairs in a private buffer — no shared slot vector, no lock on the
    // hot path — and the buffers are merged into index-ordered slots
    // only after every worker has joined.
    let mut buffers: Vec<Vec<(usize, U)>> = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local: Vec<(usize, U)> = Vec::new();
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        if idx >= items.len() {
                            break;
                        }
                        local.push((idx, f(idx, &items[idx])));
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(local) => buffers.push(local),
                // Re-raise the worker's payload on the caller: a panic
                // inside `f` must propagate, not strand its siblings.
                Err(payload) => resume_unwind(payload),
            }
        }
    });
    let mut slots: Vec<Option<U>> = (0..items.len()).map(|_| None).collect();
    for (idx, value) in buffers.into_iter().flatten() {
        slots[idx] = Some(value);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every index computed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn preserves_item_order_at_every_thread_count() {
        let items: Vec<usize> = (0..97).collect();
        let serial: Vec<usize> = items.iter().map(|&x| x * 3 + 1).collect();
        for threads in [1, 2, 3, 8, 16] {
            let parallel = par_map_indexed_threads(threads, &items, |_, &x| x * 3 + 1);
            assert_eq!(parallel, serial, "threads = {threads}");
        }
    }

    #[test]
    fn index_matches_item_position() {
        let items = ["a", "b", "c"];
        let tagged = par_map_indexed_threads(2, &items, |idx, &s| format!("{idx}{s}"));
        assert_eq!(tagged, vec!["0a", "1b", "2c"]);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map_indexed_threads(4, &empty, |_, &x: &u32| x).is_empty());
        assert_eq!(par_map_indexed_threads(4, &[7], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let out = par_map_indexed_threads(32, &[1, 2], |_, &x| x);
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected() {
        let _ = par_map_indexed_threads(0, &[1], |_, &x| x);
    }

    #[test]
    fn worker_panic_propagates_instead_of_deadlocking() {
        let items: Vec<u32> = (0..64).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            par_map_indexed_threads(4, &items, |idx, &x| {
                if idx == 13 {
                    panic!("boom at {idx}");
                }
                x * 2
            })
        }));
        let payload = result.expect_err("panic inside f must reach the caller");
        let message = payload
            .downcast_ref::<String>()
            .expect("panic carries its message");
        assert_eq!(message, "boom at 13");
    }

    #[test]
    fn thread_count_is_at_least_one() {
        assert!(thread_count() >= 1);
    }

    #[test]
    fn valid_env_values_are_accepted() {
        assert_eq!(thread_count_from(Some("1")), 1);
        assert_eq!(thread_count_from(Some("8")), 8);
        assert!(thread_count_from(None) >= 1);
        // The largest accepted value, with leading zeros too; one more
        // overflows and is rejected.
        let max = usize::MAX.to_string();
        assert_eq!(thread_count_from(Some(&max)), usize::MAX);
        assert_eq!(thread_count_from(Some(&format!("000{max}"))), usize::MAX);
        assert_parses_exactly_plain_decimals(&(usize::MAX as u128 + 1).to_string());
    }

    #[test]
    #[should_panic(expected = "must be an integer >= 1")]
    fn whitespace_padded_env_value_rejected() {
        let _ = thread_count_from(Some(" 4 "));
    }

    #[test]
    #[should_panic(expected = "must be an integer >= 1")]
    fn zero_env_value_rejected() {
        let _ = thread_count_from(Some("0"));
    }

    #[test]
    #[should_panic(expected = "must be an integer >= 1")]
    fn negative_env_value_rejected() {
        let _ = thread_count_from(Some("-1"));
    }

    #[test]
    #[should_panic(expected = "must be an integer >= 1")]
    fn non_numeric_env_value_rejected() {
        let _ = thread_count_from(Some("abc"));
    }

    #[test]
    #[should_panic(expected = "must be an integer >= 1")]
    fn empty_env_value_rejected() {
        let _ = thread_count_from(Some(""));
    }

    #[test]
    #[should_panic(expected = "must be an integer >= 1")]
    fn plus_prefixed_env_value_rejected() {
        // `parse::<usize>` alone accepts "+8"; the documented contract
        // is a plain decimal integer.
        let _ = thread_count_from(Some("+8"));
    }

    #[test]
    #[should_panic(expected = "must be an integer >= 1")]
    fn hex_env_value_rejected() {
        let _ = thread_count_from(Some("0x8"));
    }

    #[test]
    #[should_panic(expected = "must be an integer >= 1")]
    fn inner_whitespace_env_value_rejected() {
        let _ = thread_count_from(Some("4 2"));
    }

    /// The accepted-value rule written without `parse`: non-empty ASCII
    /// digits whose value, summed with checked arithmetic, lies in
    /// `1..=usize::MAX`.
    fn plain_positive_decimal(raw: &str) -> Option<usize> {
        if raw.is_empty() || !raw.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        let mut value = 0usize;
        for b in raw.bytes() {
            value = value.checked_mul(10)?.checked_add(usize::from(b - b'0'))?;
        }
        (value >= 1).then_some(value)
    }

    /// Checks `thread_count_from(Some(raw))` against
    /// [`plain_positive_decimal`]: the value when it accepts, else the
    /// configuration panic.
    fn assert_parses_exactly_plain_decimals(raw: &str) {
        let outcome = catch_unwind(|| thread_count_from(Some(raw)));
        match (plain_positive_decimal(raw), outcome) {
            (Some(want), Ok(got)) => assert_eq!(got, want, "{raw:?}"),
            (None, Err(payload)) => {
                let message = payload
                    .downcast_ref::<String>()
                    .expect("the panic carries its message");
                assert!(
                    message.contains("must be an integer >= 1"),
                    "{raw:?}: {message}"
                );
            }
            (want, got) => panic!("{raw:?}: expected {want:?}, got {:?}", got.ok()),
        }
    }

    /// Affixes wrapped around and put into `AMBIENCE_THREADS` digit
    /// runs: nothing, a zero, signs, blanks, letters, an exponent, a hex
    /// prefix and non-ASCII digits (Arabic-Indic, Devanagari, fullwidth,
    /// superscript).
    const AFFIXES: &[&str] = &[
        "", "0", "+", "-", " ", "\t", "\n", "a", "Z", "_", "e3", "0x", "\u{663}", "\u{969}",
        "\u{ff13}", "\u{b9}",
    ];

    proptest! {
        /// A run of up to 25 digits (zero-heavy: leading zeros, all-zero
        /// runs, values past `usize::MAX`), with at most one affix put
        /// into it, under every affix before it and a drawn one (half
        /// the time none) after it.
        #[test]
        fn env_values_parse_exactly_when_plain_positive_decimals(
            digits in prop::collection::vec((0u8..14).prop_map(|d| d.saturating_sub(4)), 0..26),
            inserts in prop::collection::vec((0..AFFIXES.len(), 0usize..26), 0..2),
            after in prop_oneof![Just(0), 0..AFFIXES.len()],
        ) {
            let mut body: String = digits.iter().map(|&d| char::from(b'0' + d)).collect();
            for (piece, at) in inserts {
                body.insert_str(at.min(body.len()), AFFIXES[piece]);
            }
            for before in AFFIXES {
                assert_parses_exactly_plain_decimals(&format!("{before}{body}{}", AFFIXES[after]));
            }
        }
    }
}
