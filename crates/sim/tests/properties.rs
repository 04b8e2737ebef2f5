//! Property-based tests for the Monte-Carlo harness and the parallel
//! runner: summary invariants and serial/parallel bit-exactness.

use ami_sim::fault::FaultSpec;
use ami_sim::{par_map_indexed_threads, replicate, replication_seeds, sim_rng, summarize, Summary};
use proptest::prelude::*;
use rand::RngExt;

fn sample() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6..1e6f64, 1..64)
}

/// Deterministic pseudo-random permutation of `0..n` (Fisher–Yates on a
/// seeded toolkit rng), so the permutation-invariance property explores
/// many orders without a `Shuffle` strategy.
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = sim_rng(seed);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.random_range(0..=i as u64) as usize;
        order.swap(i, j);
    }
    order
}

proptest! {
    /// The basic shape of any summary: n matches, the mean lies between
    /// the extremes, and the spread is non-negative and bounded by the
    /// range.
    #[test]
    fn summary_invariants(values in sample()) {
        let s = summarize(&values);
        prop_assert_eq!(s.n, values.len());
        prop_assert!(s.min <= s.max);
        // Allow one ulp-scale slack: the running mean can round a hair
        // past an extreme for near-constant samples.
        let slack = 1e-9 * s.max.abs().max(s.min.abs()).max(1.0);
        prop_assert!(s.min - slack <= s.mean && s.mean <= s.max + slack);
        prop_assert!(s.std_dev >= 0.0);
        prop_assert!(s.std_dev <= (s.max - s.min) + slack);
        prop_assert!(s.ci95_half_width() >= 0.0);
    }

    /// Order statistics (n, min, max) are exactly permutation-invariant;
    /// mean and standard deviation are invariant up to floating-point
    /// re-association of the fold.
    #[test]
    fn summary_is_permutation_invariant(values in sample(), seed in 0u64..1000) {
        let original = summarize(&values);
        let order = permutation(values.len(), seed);
        let shuffled: Vec<f64> = order.iter().map(|&i| values[i]).collect();
        let permuted = summarize(&shuffled);
        prop_assert_eq!(original.n, permuted.n);
        prop_assert_eq!(original.min, permuted.min);
        prop_assert_eq!(original.max, permuted.max);
        let tol = 1e-9 * original.mean.abs().max(1.0);
        prop_assert!((original.mean - permuted.mean).abs() <= tol);
        let stol = 1e-6 * original.std_dev.max(1.0);
        prop_assert!((original.std_dev - permuted.std_dev).abs() <= stol);
    }

    /// A constant observable has zero spread regardless of replication
    /// count or seed.
    #[test]
    fn constant_observable_has_zero_spread(
        value in -1e6..1e6f64,
        replications in 1usize..40,
        base_seed in 0u64..1000,
        threads in 1usize..9,
    ) {
        let s = replicate(threads, replications, base_seed, |_| value);
        // Summing n copies of v and dividing by n can land ulps off v,
        // which also leaks into the (v - mean)² variance fold.
        let tol = 1e-12 * value.abs().max(1.0);
        prop_assert!((s.mean - value).abs() <= tol);
        prop_assert!(s.std_dev <= tol);
        prop_assert_eq!((s.min, s.max), (value, value));
    }

    /// The tentpole contract as a property: for any replication count,
    /// base seed and worker count, `replicate` produces the Summary of
    /// the serial fold over the seed schedule — `==`, not
    /// approximately.
    #[test]
    fn replicate_is_bit_exact_with_the_serial_fold(
        replications in 1usize..50,
        base_seed in 0u64..u64::MAX,
        threads in 1usize..9,
    ) {
        let observable = |seed: u64| sim_rng(seed).random::<f64>();
        let values: Vec<f64> = replication_seeds(replications, base_seed)
            .into_iter()
            .map(observable)
            .collect();
        let parallel = replicate(threads, replications, base_seed, observable);
        prop_assert_eq!(summarize(&values), parallel);
    }

    /// Every worker count sees the exact seed schedule base, base+1, …
    /// (with wrapping), in order: an observable that recovers the
    /// replication index from its seed reproduces summarize(0..n)
    /// bit-exactly.
    #[test]
    fn seed_schedule_is_base_plus_index(
        replications in 1usize..50,
        base_seed in 0u64..u64::MAX,
        threads in 1usize..9,
    ) {
        let index_of_seed = |seed: u64| seed.wrapping_sub(base_seed) as f64;
        let expected: Vec<f64> = (0..replications).map(|k| k as f64).collect();
        let parallel = replicate(threads, replications, base_seed, index_of_seed);
        prop_assert_eq!(parallel, summarize(&expected));
    }

    /// par_map_indexed preserves order and pairing for any input and
    /// worker count.
    #[test]
    fn par_map_preserves_order(items in prop::collection::vec(0u64..1000, 0..40),
                               threads in 1usize..9) {
        let mapped = par_map_indexed_threads(threads, &items, |idx, &item| (idx, item * 2));
        prop_assert_eq!(mapped.len(), items.len());
        for (idx, (i, doubled)) in mapped.iter().enumerate() {
            prop_assert_eq!(*i, idx);
            prop_assert_eq!(*doubled, items[idx] * 2);
        }
    }
}

/// `Summary` derives `PartialEq`, so the bit-exactness properties above
/// really compare every field — spot-check the comparison is not vacuous.
#[test]
fn summary_equality_is_field_sensitive() {
    let a = summarize(&[1.0, 2.0, 3.0]);
    let b = Summary {
        mean: f64::from_bits(a.mean.to_bits() + 1),
        ..a.clone()
    };
    assert_ne!(a, b);
    assert_eq!(a, a.clone());
}

/// Clause keys of the `AMBIENCE_FAULTS` grammar.
const FAULT_KEYS: [&str; 5] = ["death", "outage", "link", "fade", "seed"];
/// Unknown, miscased and empty keys.
const FAULT_ODD_KEYS: [&str; 3] = ["warp", "DEATH", ""];
/// Ordinary rates and durations.
const FAULT_PLAIN_NUMBERS: [&str; 6] = ["0", "0.25", "0.5", "1", "2", "10"];
/// Boundaries, values that parse as `f64` but break arithmetic, and
/// non-numbers.
const FAULT_EDGE_NUMBERS: [&str; 11] = [
    "-0",
    "1e30",
    "-1",
    "nan",
    "inf",
    "-inf",
    "1.5",
    "0.0001",
    "18446744073709551615",
    "1e-300",
    "x",
];
/// Blanks that may surround a clause.
const FAULT_BLANKS: [&str; 3] = ["", " ", "\t "];
/// The grammar's separators, for the free-form soup.
const FAULT_SEPARATORS: [&str; 3] = ["=", ":", ","];

/// Fault-grammar strings: clauses (`key=value[:value]…` with blanks
/// around them) joined by commas, or a free concatenation of the
/// grammar's tokens, blanks and separators.
fn fault_text() -> impl Strategy<Value = String> {
    // Grammar keys and plain numbers seven times in eight, so that many
    // clause lists parse.
    let usual = |usual: &'static [&'static str], odd: &'static [&'static str]| {
        (0u8..8, 0..usual.len(), 0..odd.len())
            .prop_map(move |(pick, u, o)| if pick > 0 { usual[u] } else { odd[o] })
    };
    let number = || usual(&FAULT_PLAIN_NUMBERS, &FAULT_EDGE_NUMBERS);
    let clause = (
        usual(&FAULT_KEYS, &FAULT_ODD_KEYS),
        (number(), number()),
        (0..FAULT_BLANKS.len(), 0..FAULT_BLANKS.len()),
    )
        .prop_map(|(key, (first, second), (before, after))| {
            let (before, after) = (FAULT_BLANKS[before], FAULT_BLANKS[after]);
            // The number of values each key takes; a wrong count is
            // the soup's business.
            match key {
                "death" | "seed" => format!("{before}{key}={first}{after}"),
                _ => format!("{before}{key}={first}:{second}{after}"),
            }
        });
    let clauses = prop::collection::vec(clause, 1..4).prop_map(|clauses| clauses.join(","));
    let tokens: Vec<&'static str> = FAULT_KEYS
        .iter()
        .chain(&FAULT_ODD_KEYS)
        .chain(&FAULT_PLAIN_NUMBERS)
        .chain(&FAULT_EDGE_NUMBERS)
        .chain(&FAULT_BLANKS)
        .chain(&FAULT_SEPARATORS)
        .copied()
        .collect();
    let soup = prop::collection::vec(0..tokens.len(), 0..16)
        .prop_map(move |picks| picks.into_iter().map(|t| tokens[t]).collect::<String>());
    prop_oneof![clauses, soup]
}

proptest! {
    /// `FaultSpec::parse` answers `Ok` or `Err` for any string built from
    /// its grammar's tokens, and every spec it accepts draws a schedule
    /// for any field and horizon without panicking (a duration that
    /// parsed once made the schedule generator panic).
    #[test]
    fn fault_grammar_parses_or_errs_and_accepted_specs_schedule(
        text in fault_text(),
        run_seed in 0u64..u64::MAX,
        nodes in 1usize..64,
        rounds in 1u64..64,
    ) {
        if let Ok(spec) = FaultSpec::parse(&text) {
            let schedule = spec.schedule_for(run_seed, nodes, rounds);
            prop_assert_eq!(&schedule, &spec.schedule_for(run_seed, nodes, rounds));
        }
    }
}

/// The grammar property above is not vacuous: its strings include specs
/// that parse with non-zero fault rates (so schedules get drawn), and
/// specs that fail.
#[test]
fn fault_grammar_strings_cover_accepted_and_rejected_specs() {
    use rand::SeedableRng;
    let strategy = fault_text();
    let (mut accepted, mut faulty, mut rejected) = (0, 0, 0);
    for case in 0..512u64 {
        let text = strategy.sample(&mut proptest::test_runner::TestRng::seed_from_u64(case));
        match FaultSpec::parse(&text) {
            Ok(spec) => {
                accepted += 1;
                let m = &spec.model;
                if m.death_rate > 0.0 || m.outage_rate > 0.0 || m.link_outage_rate > 0.0 {
                    faulty += 1;
                }
            }
            Err(_) => rejected += 1,
        }
    }
    assert!(
        faulty >= 20 && accepted > faulty && rejected >= 100,
        "{accepted}/{faulty}/{rejected}"
    );
}

/// A plain f64 fold: `count` passes over `cycle`, adding each operand.
fn looped<const K: usize>(mut s: f64, cycle: [f64; K], count: u64) -> f64 {
    for _ in 0..count {
        for v in cycle {
            s += v;
        }
    }
    s
}

/// An accumulator, an operand scale and a count that sit where the
/// binade stepping rule stops holding: exact ties at the accumulator's
/// ulp (and at the ulps one binade either side), accumulators one ulp
/// either side of a binade edge, exact powers of two, zeros and
/// subnormals, operands larger than the accumulator. Counts run from 0
/// to 10⁶, mostly around the short runs taken with real adds.
fn adversarial_fold(seed: u64) -> (f64, f64, u64) {
    let mut rng = sim_rng(seed);
    let exponent = rng.random_range(0..2_000u32) as i32 - 1_000;
    let edge = 2f64.powi(exponent);
    let ulp = edge * f64::EPSILON;
    let s = match rng.random_range(0..7u8) {
        0 => edge,
        1 => edge + ulp,
        2 => edge - ulp / 2.0,
        3 => edge * (1.0 + rng.random::<f64>()),
        4 => [0.0, -0.0, f64::MIN_POSITIVE / 3.0, 5e-324][rng.random_range(0..4usize)],
        5 => 2.0 * edge - ulp,
        _ => -edge * (1.0 + rng.random::<f64>()),
    };
    let scale = 2f64.powi(rng.random_range(0..5u32) as i32 - 2);
    let bits = rng.random_range(0..30u32);
    let whole = rng.random_range(0..1u64 << bits) as f64;
    let v = match rng.random_range(0..6u8) {
        // An exact tie at the ulp of `s`'s binade or a neighbour's.
        0 | 1 => (whole + 0.5) * ulp * scale,
        2 => 2f64.powi(exponent + rng.random_range(0..120u32) as i32 - 60),
        3 => [0.0, -0.0, 5e-324, f64::MIN_POSITIVE][rng.random_range(0..4usize)],
        4 => s.abs() * 2f64.powi(rng.random_range(1..60u32) as i32) * (1.0 + rng.random::<f64>()),
        _ => ulp * rng.random::<f64>() * whole.max(1.0),
    };
    let count = match rng.random_range(0..4u8) {
        0 => rng.random_range(0..40u64),
        1 => rng.random_range(0..2_000u64),
        2 => rng.random_range(0..100_000u64),
        _ => rng.random_range(0..=1_000_000u64),
    };
    (s, v, count)
}

proptest! {
    /// The exact stepping primitive returns the plain loop's value bit
    /// for bit: repeated adds and subtractions, subtraction cycles of
    /// two operands, and a cycle whose operands point both ways.
    #[test]
    fn exact_stepping_equals_the_plain_f64_loop(seed in 0u64..u64::MAX) {
        use ami_sim::exact;
        let (s, v, count) = adversarial_fold(seed);
        let (_, w, _) = adversarial_fold(seed ^ 0x5EED);
        let bits = |x: f64| x.to_bits();
        prop_assert_eq!(bits(exact::add_n(s, v, count)), bits(looped(s, [v], count)),
            "add_n({s:e}, {v:e}, {count})");
        prop_assert_eq!(bits(exact::sub_cycle_n(s, [v], count)), bits(looped(s, [-v], count)),
            "sub_cycle_n({s:e}, [{v:e}], {count})");
        let pairs = count / 2;
        prop_assert_eq!(
            bits(exact::sub_cycle_n(s, [v, w], pairs)),
            bits(looped(s, [-v, -w], pairs)),
            "sub_cycle_n({s:e}, [{v:e}, {w:e}], {pairs})"
        );
        prop_assert_eq!(
            bits(exact::add_cycle_n(s, [v, -w], pairs)),
            bits(looped(s, [v, -w], pairs)),
            "add_cycle_n({s:e}, [{v:e}, {:e}], {pairs})", -w
        );
    }

    /// `charge_n` equals `count` single charges for the ledger, whose
    /// cells fold charges into f64 accumulators, from accumulators the
    /// property above drives to binade edges and ties.
    #[test]
    fn charge_n_equals_repeated_charges(seed in 0u64..u64::MAX) {
        use ami_sim::obs::{EnergyCategory, LedgerRecorder, Recorder};
        let (start, v, count) = adversarial_fold(seed);
        let (start, joules, count) = (start.abs(), v.abs(), count.min(50_000));
        let (mut bulk, mut single) = (LedgerRecorder::with_nodes(2), LedgerRecorder::with_nodes(2));
        for rec in [&mut bulk, &mut single] {
            rec.charge(1, EnergyCategory::Tx, start);
        }
        bulk.charge_n(1, EnergyCategory::Tx, joules, count);
        for _ in 0..count {
            single.charge(1, EnergyCategory::Tx, joules);
        }
        prop_assert_eq!(
            bulk.ledger.node_category(1, EnergyCategory::Tx).to_bits(),
            single.ledger.node_category(1, EnergyCategory::Tx).to_bits(),
            "ledger: {start:e} + {count} × {joules:e}"
        );
        prop_assert_eq!(bulk, single);
    }
}

/// The adversarial folds above are not vacuous: they include jumps the
/// rule takes, ties it must refuse, and operands past the accumulator.
#[test]
fn adversarial_folds_reach_ties_edges_and_long_runs() {
    use ami_sim::exact::Binade;
    let (mut ties, mut edges, mut long, mut large) = (0, 0, 0, 0);
    for seed in 0..2_000u64 {
        let (s, v, count) = adversarial_fold(seed);
        if let Some(binade) = Binade::of(s) {
            ties += usize::from(v != 0.0 && binade.units(v).is_none() && v.abs() < s.abs());
            let m = binade.ulps(s);
            edges += usize::from(m <= (1 << 52) + 1 || m >= (1 << 53) - 1);
        }
        long += usize::from(count > 100_000);
        large += usize::from(v.abs() > s.abs());
    }
    assert!(
        ties >= 100 && edges >= 300 && long >= 200 && large >= 300,
        "ties {ties}, edges {edges}, long runs {long}, large operands {large}"
    );
}
