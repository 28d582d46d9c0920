//! Shared model corpus for the presolve suites: a handful of structured
//! models (pigeonhole, covers, colourings, equality chains, weighted PB)
//! and a seeded stream of small random models.

use bilp::{Cmp, LinExpr, Model};
use cgra_rng::Rng;

/// Seed of the random-model stream both presolve suites walk.
pub const RANDOM_SEED: u64 = 0x9E50_1FE5;

/// Length of the random-model stream.
pub const RANDOM_CASES: usize = 250;

pub fn pigeonhole(n: usize) -> Model {
    let mut m = Model::new();
    let p: Vec<Vec<_>> = (0..n + 1).map(|_| m.new_vars(n)).collect();
    for row in &p {
        m.add_clause(row.iter().map(|v| v.lit()));
    }
    for h in 0..n {
        m.add_at_most_one(p.iter().map(|row| row[h]));
    }
    m
}

pub fn cycle_cover(n: usize) -> Model {
    let mut m = Model::new();
    let v = m.new_vars(n);
    for i in 0..n {
        m.add_clause([v[i].lit(), v[(i + 1) % n].lit()]);
    }
    m.minimize(LinExpr::sum(v));
    m
}

pub fn coloring(edges: &[(usize, usize)], nodes: usize, colors: usize) -> Model {
    let mut m = Model::new();
    let x: Vec<Vec<_>> = (0..nodes).map(|_| m.new_vars(colors)).collect();
    for row in &x {
        m.add_exactly_one(row.iter().copied());
    }
    for &(a, b) in edges {
        for (xa, xb) in x[a].clone().into_iter().zip(x[b].clone()) {
            m.add_clause([!xa.lit(), !xb.lit()]);
        }
    }
    m
}

/// The complete graph on four nodes.
pub fn k4_edges() -> Vec<(usize, usize)> {
    (0..4)
        .flat_map(|a| (a + 1..4).map(move |b| (a, b)))
        .collect()
}

pub fn weighted_cover() -> Model {
    let mut m = Model::new();
    let v = m.new_vars(5);
    let weights = [3i64, 5, 7, 2, 4];
    for pair in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)] {
        m.add_clause([v[pair.0].lit(), v[pair.1].lit()]);
    }
    let mut obj = LinExpr::new();
    for (w, var) in weights.iter().zip(&v) {
        obj.add_term(*w, *var);
    }
    m.minimize(obj);
    m
}

pub fn equality_chain(n: usize) -> Model {
    let mut m = Model::new();
    let v = m.new_vars(n);
    for w in v.windows(2) {
        // v[i] == v[i+1] via the two implications.
        m.add_implies(w[0].lit(), w[1].lit());
        m.add_implies(w[1].lit(), w[0].lit());
    }
    m.fix(v[0], true);
    m.minimize(LinExpr::sum(v));
    m
}

pub fn weighted_pb() -> Model {
    let mut m = Model::new();
    let v = m.new_vars(6);
    let mut e = LinExpr::new();
    for (i, var) in v.iter().enumerate() {
        e.add_term(2 + i as i64, *var);
    }
    m.add_le(e, 9);
    let mut obj = LinExpr::new();
    for (i, var) in v.iter().enumerate() {
        obj.add_term(if i % 2 == 0 { -1 } else { 1 }, *var);
    }
    m.minimize(obj);
    m
}

/// The structured corpus, labelled.
pub fn structured() -> Vec<(&'static str, Model)> {
    let k4 = k4_edges();
    vec![
        ("pigeonhole-5", pigeonhole(5)),
        ("cycle-cover-11", cycle_cover(11)),
        ("k4-3coloring-unsat", coloring(&k4, 4, 3)),
        ("k4-4coloring-sat", coloring(&k4, 4, 4)),
        ("weighted-cover", weighted_cover()),
        ("equality-chain-8", equality_chain(8)),
        ("weighted-pb", weighted_pb()),
    ]
}

pub fn random_model(rng: &mut Rng) -> Model {
    let n_vars = rng.gen_range_inclusive(2..=9);
    let mut m = Model::new();
    let vars = m.new_vars(n_vars);
    let n_constraints = rng.gen_range_inclusive(1..=10);
    for _ in 0..n_constraints {
        let n_terms = rng.gen_range_inclusive(1..=5);
        let mut e = LinExpr::new();
        for _ in 0..n_terms {
            e.add_term(
                rng.gen_i64_inclusive(-4..=4),
                vars[rng.gen_range(0..n_vars)],
            );
        }
        let cmp = match rng.below(3) {
            0 => Cmp::Le,
            1 => Cmp::Ge,
            _ => Cmp::Eq,
        };
        m.add(e, cmp, rng.gen_i64_inclusive(-6..=8));
    }
    if rng.gen_bool(0.5) {
        let mut e = LinExpr::new();
        for _ in 0..rng.gen_range_inclusive(1..=n_vars) {
            e.add_term(
                rng.gen_i64_inclusive(-5..=5),
                vars[rng.gen_range(0..n_vars)],
            );
        }
        m.minimize(e);
    }
    m
}

/// The seeded random-model stream, in order.
pub fn random_models() -> Vec<Model> {
    let mut rng = Rng::seed_from_u64(RANDOM_SEED);
    (0..RANDOM_CASES).map(|_| random_model(&mut rng)).collect()
}
