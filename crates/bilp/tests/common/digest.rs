//! A stable 64-bit digest of a presolve result, for golden tests that pin
//! presolve's exact output.
//!
//! It covers everything presolve hands on: the reduced model's
//! constraints, objective and branch hints, where every original literal
//! lands ([`Reconstruction::map_lit`]), and every [`PresolveStats`]
//! counter except the wall-clock `elapsed`. FNV-1a is used instead of the
//! standard hasher so the pinned values do not depend on the toolchain.

use bilp::{Cmp, Lit, LitDisposition, Model, PresolveStats, Presolved};

/// FNV-1a over little-endian 64-bit words.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

fn stats_words(s: &PresolveStats) -> [u64; 12] {
    [
        s.vars_before,
        s.vars_after,
        s.constraints_before,
        s.constraints_after,
        s.fixed_vars,
        s.aliased_vars,
        s.removed_constraints,
        s.strengthened,
        s.cliques,
        s.probed_vars,
        s.failed_literals,
        u64::from(s.rounds),
    ]
}

fn model_words(h: &mut Fnv, m: &Model) {
    h.word(m.num_vars() as u64);
    h.word(m.constraints().len() as u64);
    for c in m.constraints() {
        h.word(match c.cmp {
            Cmp::Le => 0,
            Cmp::Ge => 1,
            Cmp::Eq => 2,
        });
        h.word(c.rhs as u64);
        h.word(c.expr.constant() as u64);
        h.word(c.expr.terms().len() as u64);
        for &(a, v) in c.expr.terms() {
            h.word(a as u64);
            h.word(v.index() as u64);
        }
    }
    match m.objective() {
        None => h.word(0),
        Some(obj) => {
            h.word(1);
            h.word(obj.constant() as u64);
            h.word(obj.terms().len() as u64);
            for &(a, v) in obj.terms() {
                h.word(a as u64);
                h.word(v.index() as u64);
            }
        }
    }
    h.word(m.branch_hints().len() as u64);
    for &(v, priority, phase) in m.branch_hints() {
        h.word(v.index() as u64);
        h.word(priority.to_bits());
        h.word(u64::from(phase));
    }
}

fn lit_word(d: LitDisposition) -> u64 {
    match d {
        LitDisposition::Fixed(b) => u64::from(b),
        LitDisposition::Free(b) => 2 + u64::from(b),
        LitDisposition::Mapped(l) => 4 + l.code() as u64,
    }
}

/// Digest of one presolve result over a model of `original_vars` variables.
pub fn digest(p: &Presolved, original_vars: usize) -> u64 {
    let mut h = Fnv::new();
    match p {
        Presolved::Infeasible { stats } => {
            h.word(0);
            stats_words(stats).iter().for_each(|&w| h.word(w));
        }
        Presolved::Reduced {
            model,
            reconstruction,
            stats,
        } => {
            h.word(1);
            stats_words(stats).iter().for_each(|&w| h.word(w));
            model_words(&mut h, model);
            // `Var` has no public constructor; a scratch model of the same
            // size hands out the original model's variables in order.
            for var in Model::new().new_vars(original_vars) {
                h.word(lit_word(reconstruction.map_lit(Lit::positive(var))));
                h.word(lit_word(reconstruction.map_lit(Lit::negative(var))));
            }
        }
    }
    h.finish()
}
