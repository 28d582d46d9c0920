//! Golden identity suite for presolve: the exact output of `presolve` —
//! reduced model, reconstruction and every reduction counter — is pinned
//! by digest on the differential corpus, the seeded random-model stream
//! and a few larger clique- and subsumption-rich models. Presolve's
//! passes may be reimplemented for speed, but never so that any of these
//! outputs change: the digests were recorded before the passes were
//! rewritten over flat literal-indexed arrays.

#[path = "common/corpus.rs"]
mod corpus;
#[path = "common/digest.rs"]
mod digest;

use bilp::{presolve, LinExpr, Model, PresolveConfig, PresolveStats, Presolved};
use cgra_rng::Rng;
use digest::{digest, Fnv};

/// The two configurations every model is presolved under: the default
/// (small models skip probing) and probing regardless of size.
fn configs() -> [PresolveConfig; 2] {
    [
        PresolveConfig::default(),
        PresolveConfig {
            probe_min_vars: 0,
            ..PresolveConfig::default()
        },
    ]
}

/// Presolves `m` under both configurations: the two digests, and the
/// counters summed over both runs.
fn run(m: &Model, totals: &mut PresolveStats) -> [u64; 2] {
    configs().map(|cfg| {
        let p = presolve(m, &cfg);
        let s = p.stats();
        totals.cliques += s.cliques;
        totals.failed_literals += s.failed_literals;
        totals.removed_constraints += s.removed_constraints;
        totals.aliased_vars += s.aliased_vars;
        digest(&p, m.num_vars())
    })
}

/// Many triangles of pairwise exclusions over `n` variables: disjoint
/// ones, ones sharing a vertex or an edge with a neighbour, a few
/// at-most-one families that cover some of them, and a long clause per
/// block so nothing is free.
fn triangles(n: usize, seed: u64) -> Model {
    let mut rng = Rng::seed_from_u64(seed);
    let mut m = Model::new();
    let v = m.new_vars(n);
    let excl = |m: &mut Model, a: usize, b: usize| m.add_clause([!v[a].lit(), !v[b].lit()]);
    // Disjoint triangles.
    for t in (0..n / 2).step_by(3) {
        if t + 2 < n / 2 {
            excl(&mut m, t, t + 1);
            excl(&mut m, t + 1, t + 2);
            excl(&mut m, t, t + 2);
        }
    }
    // Overlapping triangles on the other half: random triples.
    for _ in 0..n {
        let a = n / 2 + rng.gen_range(0..n - n / 2);
        let b = n / 2 + rng.gen_range(0..n - n / 2);
        let c = n / 2 + rng.gen_range(0..n - n / 2);
        if a != b && b != c && a != c {
            excl(&mut m, a, b);
            excl(&mut m, b, c);
            excl(&mut m, a, c);
        }
    }
    // At-most-one families overlapping both halves.
    for _ in 0..n / 16 {
        let start = rng.gen_range(0..n - 8);
        m.add_at_most_one((start..start + rng.gen_range_inclusive(3..=8)).map(|i| v[i]));
    }
    for block in v.chunks(12) {
        m.add_clause(block.iter().map(|x| x.lit()));
    }
    m
}

/// A clause soup with duplicates, subsumed clauses, implication chains,
/// equivalences and failed-literal gadgets, plus weighted at-mosts, an objective and
/// branch hints.
fn clause_soup(n: usize, seed: u64) -> Model {
    let mut rng = Rng::seed_from_u64(seed);
    let mut m = Model::new();
    let v = m.new_vars(n);
    let lit = |rng: &mut Rng| {
        let x = v[rng.gen_range(0..n)].lit();
        if rng.gen_bool(0.5) {
            !x
        } else {
            x
        }
    };
    for _ in 0..n {
        let len = rng.gen_range_inclusive(3..=6);
        let c: Vec<_> = (0..len).map(|_| lit(&mut rng)).collect();
        if rng.gen_bool(0.2) {
            m.add_clause(c.iter().copied());
        }
        if rng.gen_bool(0.3) {
            // A superset of `c`: subsumed.
            m.add_clause(c.iter().copied().chain([lit(&mut rng), lit(&mut rng)]));
        }
        m.add_clause(c);
    }
    for i in 0..n / 4 {
        m.add_implies(v[i].lit(), v[(i * 7 + 3) % n].lit());
    }
    // Equivalences x ≡ y, for the substitution pass.
    for i in (0..n - 2).step_by(53) {
        m.add_implies(v[i].lit(), v[i + 2].lit());
        m.add_implies(v[i + 2].lit(), v[i].lit());
    }
    // Failed-literal gadgets: x → y and x → ¬y, so probing fixes ¬x.
    for i in (0..n - 1).step_by(97) {
        m.add_implies(v[i].lit(), v[i + 1].lit());
        m.add_implies(v[i].lit(), !v[i + 1].lit());
    }
    for _ in 0..n / 10 {
        let mut e = LinExpr::new();
        for _ in 0..rng.gen_range_inclusive(2..=6) {
            e.add_term(rng.gen_i64_inclusive(1..=4), v[rng.gen_range(0..n)]);
        }
        m.add_le(e, rng.gen_i64_inclusive(2..=7));
    }
    let mut obj = LinExpr::new();
    for (i, x) in v.iter().enumerate() {
        obj.add_term((i as i64 % 5) - 2, *x);
        if i % 9 == 0 {
            m.suggest_branch(*x, i as f64 / 3.0, i % 2 == 0);
        }
    }
    m.minimize(obj);
    m
}

/// Pinned `(label, default-config digest, probe-all digest)`.
const STRUCTURED: [(&str, u64, u64); 7] = [
    ("pigeonhole-5", 0x902c_0684_ab3d_76f7, 0x339e_b336_1857_60a9),
    (
        "cycle-cover-11",
        0xc862_22de_b3d5_2106,
        0x08eb_3a98_d6fd_53ad,
    ),
    (
        "k4-3coloring-unsat",
        0xf0f5_d79c_be84_8ac8,
        0x1e1b_5419_808e_1c44,
    ),
    (
        "k4-4coloring-sat",
        0xca13_b2ea_7495_3b36,
        0x50ff_867e_f8f7_9926,
    ),
    (
        "weighted-cover",
        0x2bb6_6a0c_5d46_3a20,
        0x4a85_066a_4079_f705,
    ),
    (
        "equality-chain-8",
        0xdb83_a514_ce6f_a067,
        0xdb83_a514_ce6f_a067,
    ),
    ("weighted-pb", 0x51ee_6784_f5e6_9752, 0x0c6e_3632_1f81_6414),
];

/// Pinned fold of every random model's two digests, in stream order.
const RANDOM_FOLD: u64 = 0x0eb8_8fb3_9fd6_9fc2;

/// Pinned `(label, default-config digest, probe-all digest)`.
const LARGER: [(&str, u64, u64); 4] = [
    (
        "triangles-300",
        0xaf9a_018f_a3bd_2911,
        0x88f7_3a35_ba88_c9ce,
    ),
    (
        "triangles-2000",
        0xd763_2af8_2ffc_e83c,
        0xd763_2af8_2ffc_e83c,
    ),
    (
        "clause-soup-400",
        0xd989_21dc_0d7c_9cba,
        0x59fa_94dc_86a2_6743,
    ),
    (
        "clause-soup-3000",
        0x51f9_9eff_23de_7b95,
        0x51f9_9eff_23de_7b95,
    ),
];

fn larger() -> [(&'static str, Model); 4] {
    [
        ("triangles-300", triangles(300, 11)),
        ("triangles-2000", triangles(2000, 12)),
        ("clause-soup-400", clause_soup(400, 13)),
        ("clause-soup-3000", clause_soup(3000, 14)),
    ]
}

#[test]
fn structured_corpus_output_is_pinned() {
    let mut totals = PresolveStats::default();
    let got: Vec<(&str, u64, u64)> = corpus::structured()
        .iter()
        .map(|(label, m)| {
            let [a, b] = run(m, &mut totals);
            (*label, a, b)
        })
        .collect();
    assert_eq!(got, STRUCTURED);
}

#[test]
fn random_stream_output_is_pinned() {
    let mut totals = PresolveStats::default();
    let mut fold = Fnv::new();
    for m in corpus::random_models() {
        for d in run(&m, &mut totals) {
            fold.word(d);
        }
    }
    assert_eq!(fold.finish(), RANDOM_FOLD);
}

#[test]
fn larger_models_output_is_pinned() {
    let mut totals = PresolveStats::default();
    let got: Vec<(&str, u64, u64)> = larger()
        .iter()
        .map(|(label, m)| {
            let [a, b] = run(m, &mut totals);
            (*label, a, b)
        })
        .collect();
    assert_eq!(got, LARGER);
}

/// The pinned corpus is only worth pinning if it reaches the passes that
/// Table-2 models never exercise: clique synthesis, failed literals and
/// constraint removal.
#[test]
fn corpus_reaches_every_reducing_branch() {
    let mut totals = PresolveStats::default();
    for (_, m) in corpus::structured() {
        run(&m, &mut totals);
    }
    for m in corpus::random_models() {
        run(&m, &mut totals);
    }
    for (_, m) in larger() {
        run(&m, &mut totals);
    }
    assert!(totals.cliques >= 1, "{totals:?}");
    assert!(totals.failed_literals >= 1, "{totals:?}");
    assert!(totals.removed_constraints >= 1, "{totals:?}");
    assert!(totals.aliased_vars >= 1, "{totals:?}");
}

/// Sanity check on the digest itself: different outputs digest
/// differently, and the digest is a pure function of the output.
#[test]
fn digest_separates_outputs() {
    let cfg = PresolveConfig::default();
    let a = corpus::cycle_cover(11);
    let b = corpus::cycle_cover(12);
    let pa = presolve(&a, &cfg);
    assert_eq!(
        digest(&pa, a.num_vars()),
        digest(&presolve(&a, &cfg), a.num_vars())
    );
    assert_ne!(
        digest(&pa, a.num_vars()),
        digest(&presolve(&b, &cfg), b.num_vars())
    );
    assert!(matches!(pa, Presolved::Reduced { .. }));
}
