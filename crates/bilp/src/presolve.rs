//! Presolve: root-level problem reduction ahead of search.
//!
//! The CDCL engine is strongest on a *small* model: every variable it never
//! sees is a variable it never branches on, and every constraint removed is
//! one fewer watch list to walk. This module shrinks a [`Model`] with a
//! fixpoint of cheap, sound transformations before any search begins:
//!
//! 1. **Root propagation** — unit constraints are applied and their
//!    consequences propagated to fixpoint across clauses and PB at-most
//!    constraints.
//! 2. **Coefficient saturation + gcd division** — at-most constraints are
//!    tightened with the standard pseudo-Boolean saturation rule (applied in
//!    ≥-space, where it is sound) and divided by the gcd of their
//!    coefficients with a floored bound (see [`crate::normalize`]).
//! 3. **Equivalent-literal substitution** — the binary clauses `(¬a ∨ b)`
//!    and `(a ∨ ¬b)` together mean `a ≡ b`; such classes are merged with a
//!    union-find over literals and every occurrence rewritten to the class
//!    representative. ILP mapping formulations are full of `f ⇔ r`
//!    implication pairs, which makes this the single biggest reduction.
//! 4. **Duplicate and subsumed constraint elimination** — syntactic
//!    duplicates are dropped, and a budgeted occurrence-list pass removes
//!    clauses subsumed by shorter ones.
//! 5. **At-most-one clique detection** — pairwise exclusions (binary
//!    clauses) are collected into an adjacency structure together with
//!    existing at-most-one constraints; greedily grown cliques replace the
//!    covered binaries with a single cardinality constraint.
//! 6. **Failed-literal probing (budgeted)** — each polarity of
//!    high-occurrence variables is temporarily assumed and unit-propagated;
//!    a conflict fixes the opposite literal at the root. Both polarities
//!    failing proves infeasibility.
//! 7. **Fixed-variable elimination** — fixed and aliased variables are
//!    removed and the survivors densely renumbered.
//!
//! # Data layout and the identical-output invariant
//!
//! Every index a pass builds over the working set — occurrence lists,
//! the binary implication graph, the exclusion adjacency, the probing
//! watch lists — is a `Csr`: one offsets array and one items array,
//! indexed by [`Lit::code`] (or variable index), filled in ascending
//! constraint order. Duplicate detection hashes constraints in place.
//! How an index is laid out is free to change for speed; what presolve
//! produces is not. The same model and configuration must give the same
//! reduced [`Model`], the same [`Reconstruction`] and the same value of
//! every [`PresolveStats`] counter except `elapsed` — those go out on
//! the wire and decide which clauses the engine sees. So each pass visits
//! candidates in a fixed order (constraint index, then literal code),
//! and `tests/presolve_golden.rs` pins the output by digest.
//!
//! # Why reconstruction is sound
//!
//! Every pass preserves the solution set exactly, up to the recorded
//! variable [`Reconstruction`]: a variable is either *kept* (renamed to a
//! dense index, possibly with flipped polarity when its equivalence-class
//! representative is a negated literal) or *fixed* (its value is forced in
//! every solution, or — for variables appearing in no constraint — chosen
//! to the objective-optimal polarity, which preserves both feasibility and
//! the optimum). Fixed objective contributions are folded into the reduced
//! objective's *constant* term, so objective values reported against the
//! reduced model equal objective values of the expanded assignment against
//! the original model; no post-hoc adjustment is needed.

use crate::model::{LinExpr, Lit, Model, Var};
use crate::normalize::{normalize, NormConstraint};
use crate::solve::Assignment;
use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

const UNASSIGNED: i8 = -1;
/// Hard cap on simplification rounds; the fixpoint is almost always
/// reached in two to four. A round is linear in the working set except
/// for the clique pass, whose adjacency grows with Σ k² over the
/// at-most-one families it seeds from (k ≤ [`CLIQUE_SEED_LIMIT`]), and
/// the subsumption pass, which is capped by [`SUBSUME_BUDGET`].
const MAX_ROUNDS: u32 = 12;
/// Upper bound on pairwise expansion of an existing at-most-one when
/// seeding the exclusion adjacency (quadratic in the constraint length).
const CLIQUE_SEED_LIMIT: usize = 32;
/// Budget (in pairwise lit comparisons) for the clause subsumption pass.
const SUBSUME_BUDGET: u64 = 2_000_000;

/// Presolve configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PresolveConfig {
    /// Propagation-step budget for failed-literal probing; `0` disables
    /// probing entirely.
    pub probe_budget: u64,
    /// Models with fewer variables than this skip probing outright.
    /// On small, easy instances the search finds the fixings probing
    /// would in its first few conflicts, while building the probe's
    /// snapshot and watch lists is a fixed cost paid before any search;
    /// small models therefore go straight to the engine. Set to `0` to
    /// probe regardless of size.
    pub probe_min_vars: usize,
    /// Absolute deadline shared with the solver: presolve time counts
    /// against the solve budget, and every pass polls this.
    pub deadline: Option<Instant>,
}

impl Default for PresolveConfig {
    fn default() -> Self {
        PresolveConfig {
            probe_budget: 200_000,
            probe_min_vars: 512,
            deadline: None,
        }
    }
}

/// Reduction counters for one presolve run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PresolveStats {
    /// Variables in the original model.
    pub vars_before: u64,
    /// Variables in the reduced model.
    pub vars_after: u64,
    /// Constraints in the original model.
    pub constraints_before: u64,
    /// Constraints in the reduced model.
    pub constraints_after: u64,
    /// Variables fixed at the root (propagation, probing, free-variable
    /// elimination).
    pub fixed_vars: u64,
    /// Variables merged into another variable by equivalent-literal
    /// substitution.
    pub aliased_vars: u64,
    /// Constraints removed (satisfied, trivial, duplicate, subsumed, or
    /// replaced by a clique).
    pub removed_constraints: u64,
    /// At-most constraints tightened by saturation or gcd division.
    pub strengthened: u64,
    /// At-most-one cliques synthesised from pairwise exclusions.
    pub cliques: u64,
    /// Variables probed (both polarities counted once).
    pub probed_vars: u64,
    /// Probes that failed and therefore fixed the opposite literal.
    pub failed_literals: u64,
    /// Simplification rounds until fixpoint.
    pub rounds: u32,
    /// Wall-clock time spent in presolve.
    pub elapsed: Duration,
}

impl PresolveStats {
    /// Fraction of variables + constraints removed, in `[0, 1]`.
    pub fn reduction_ratio(&self) -> f64 {
        let before = (self.vars_before + self.constraints_before) as f64;
        let after = (self.vars_after + self.constraints_after) as f64;
        if before == 0.0 {
            0.0
        } else {
            1.0 - after / before
        }
    }
}

/// How one original variable is recovered from a reduced-model assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Disposition {
    /// The variable is fixed. `entailed` distinguishes fixings the model
    /// forces (root units, probing) from don't-care eliminations of
    /// unconstrained variables, where presolve merely *picked* a value
    /// and the model admits either.
    Fixed { value: bool, entailed: bool },
    /// The variable maps to a reduced-model variable (possibly negated).
    Mapped { var: Var, negated: bool },
}

/// Maps assignments of the reduced model back to the original variables.
#[derive(Debug, Clone)]
pub struct Reconstruction {
    dispositions: Vec<Disposition>,
}

impl Reconstruction {
    /// Expands a reduced-model assignment to the original variable space.
    pub fn expand(&self, reduced: &Assignment) -> Assignment {
        Assignment::from_values(
            self.dispositions
                .iter()
                .map(|d| match *d {
                    Disposition::Fixed { value, .. } => value,
                    Disposition::Mapped { var, negated } => reduced.value(var) ^ negated,
                })
                .collect(),
        )
    }

    /// Number of variables in the original model.
    pub fn num_original_vars(&self) -> usize {
        self.dispositions.len()
    }

    /// Projects a complete original-space assignment onto the reduced
    /// model's variables — the inverse direction of
    /// [`Reconstruction::expand`], used to translate heuristic incumbents
    /// into the space the engines search. Returns `None` when the
    /// assignment contradicts an entailed fixing or values two originals
    /// merged into one reduced variable inconsistently: such an
    /// assignment violates the original model, so it has no reduced
    /// counterpart. Don't-care eliminations accept either value.
    pub fn restrict(&self, original: &[bool], reduced_vars: usize) -> Option<Vec<bool>> {
        if original.len() != self.dispositions.len() {
            return None;
        }
        let mut values: Vec<Option<bool>> = vec![None; reduced_vars];
        for (i, d) in self.dispositions.iter().enumerate() {
            match *d {
                Disposition::Fixed { value, entailed } => {
                    if entailed && original[i] != value {
                        return None;
                    }
                }
                Disposition::Mapped { var, negated } => {
                    let v = original[i] ^ negated;
                    match values.get(var.index()).copied()? {
                        None => values[var.index()] = Some(v),
                        Some(prev) if prev != v => return None,
                        Some(_) => {}
                    }
                }
            }
        }
        // Every reduced variable is some surviving original's
        // representative, so a complete original assignment covers them
        // all; treat a gap as untranslatable rather than guessing.
        values.into_iter().collect()
    }

    /// Where an original-model literal lives in the reduced model. Used
    /// to translate assumption literals into the reduced space (and unsat
    /// cores back): equivalences ([`LitDisposition::Mapped`]) and entailed
    /// fixings ([`LitDisposition::Fixed`]) transfer exactly — in
    /// particular a fixed-`false` literal is its own refutation — while
    /// [`LitDisposition::Free`] marks a don't-care elimination the caller
    /// must handle conservatively (the model does *not* entail the picked
    /// value, so a disagreeing assumption is not thereby refuted).
    pub fn map_lit(&self, lit: Lit) -> LitDisposition {
        match self.dispositions[lit.var().index()] {
            Disposition::Fixed { value, entailed } => {
                let as_seen = value != lit.is_negative();
                if entailed {
                    LitDisposition::Fixed(as_seen)
                } else {
                    LitDisposition::Free(as_seen)
                }
            }
            Disposition::Mapped { var, negated } => {
                LitDisposition::Mapped(if negated != lit.is_negative() {
                    Lit::negative(var)
                } else {
                    Lit::positive(var)
                })
            }
        }
    }
}

/// Where an original-model literal lives after presolve (see
/// [`Reconstruction::map_lit`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LitDisposition {
    /// The literal's variable was fixed by an entailed deduction; the
    /// literal evaluates to this constant in every solution of the
    /// original model.
    Fixed(bool),
    /// The literal's variable was eliminated as unconstrained and presolve
    /// picked a value under which the literal evaluates to this constant —
    /// but the model admits the opposite value too.
    Free(bool),
    /// The literal is equivalent to this reduced-model literal.
    Mapped(Lit),
}

/// Result of [`presolve`].
#[derive(Debug, Clone)]
pub enum Presolved {
    /// Presolve proved the model infeasible.
    Infeasible {
        /// Reduction counters up to the refutation.
        stats: PresolveStats,
    },
    /// An equivalent reduced model plus the variable map back.
    Reduced {
        /// The reduced model.
        model: Model,
        /// Maps reduced assignments back to original variables.
        reconstruction: Reconstruction,
        /// Reduction counters.
        stats: PresolveStats,
    },
}

impl Presolved {
    /// The reduction counters, whichever way presolve ended.
    pub fn stats(&self) -> &PresolveStats {
        match self {
            Presolved::Infeasible { stats } | Presolved::Reduced { stats, .. } => stats,
        }
    }
}

/// A working constraint; literals are rewritten in place as substitutions
/// and fixings land, so stored literals are current as of the last
/// simplification sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Con {
    Clause(Vec<Lit>),
    AtMost(Vec<(u64, Lit)>, u64),
}

impl Con {
    /// A hash of the constraint's content, for duplicate detection.
    fn content_hash(&self) -> u64 {
        // FxHash-style multiply-rotate: cheap, and equal constraints hash
        // equally, which is all `dedup_pass` needs.
        const K: u64 = 0x517c_c1b7_2722_0a95;
        let mix = |h: u64, w: u64| (h.rotate_left(5) ^ w).wrapping_mul(K);
        match self {
            Con::Clause(lits) => lits.iter().fold(mix(0, 0), |h, l| mix(h, u64::from(l.0))),
            Con::AtMost(terms, bound) => terms.iter().fold(mix(mix(0, 1), *bound), |h, &(a, l)| {
                mix(mix(h, a), u64::from(l.0))
            }),
        }
    }
}

/// Compressed sparse rows: row `r` is `items[start[r]..start[r + 1]]`.
/// Every per-literal (or per-variable) index presolve builds is one of
/// these: two flat arrays instead of a map of vectors.
struct Csr<T> {
    start: Vec<usize>,
    items: Vec<T>,
}

impl<T: Copy + Default> Csr<T> {
    /// Builds the rows from a stream of `(row, item)` pairs. `pairs` is
    /// called twice — once to count, once to fill — and must emit the
    /// same pairs in the same order both times; each row keeps its items
    /// in emission order.
    fn build(rows: usize, pairs: impl Fn(&mut dyn FnMut(usize, T))) -> Self {
        let mut start = vec![0usize; rows + 1];
        pairs(&mut |r, _| start[r + 1] += 1);
        for r in 0..rows {
            start[r + 1] += start[r];
        }
        let mut items = vec![T::default(); start[rows]];
        let mut fill = start.clone();
        pairs(&mut |r, item| {
            items[fill[r]] = item;
            fill[r] += 1;
        });
        Csr { start, items }
    }

    fn row(&self, r: usize) -> &[T] {
        &self.items[self.start[r]..self.start[r + 1]]
    }
}

impl<T: Copy + Default + Ord> Csr<T> {
    /// Sorts every row and drops repeated items, compacting in place.
    fn sort_dedup_rows(&mut self) {
        let mut write = 0;
        for r in 0..self.start.len() - 1 {
            let (lo, hi) = (self.start[r], self.start[r + 1]);
            self.items[lo..hi].sort_unstable();
            self.start[r] = write;
            for k in lo..hi {
                if k == lo || self.items[k] != self.items[k - 1] {
                    self.items[write] = self.items[k];
                    write += 1;
                }
            }
        }
        *self.start.last_mut().expect("rows + 1 bounds") = write;
        self.items.truncate(write);
    }
}

/// The items two ascending lists share, ascending (a sorted merge).
fn common<'a>(a: &'a [u32], b: &'a [u32]) -> impl Iterator<Item = u32> + 'a {
    let (mut i, mut j) = (0, 0);
    std::iter::from_fn(move || {
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                    return Some(a[i - 1]);
                }
            }
        }
        None
    })
}

struct Work {
    value: Vec<i8>,
    rep: Vec<Lit>,
    cons: Vec<Option<Con>>,
    queue: VecDeque<Lit>,
    stats: PresolveStats,
    deadline: Option<Instant>,
    poll: u32,
    out_of_time: bool,
}

/// Signal that a root-level contradiction was derived.
struct Conflict;

impl Work {
    fn new(n: usize, deadline: Option<Instant>) -> Self {
        Work {
            value: vec![UNASSIGNED; n],
            rep: (0..n).map(|i| Var(i as u32).lit()).collect(),
            cons: Vec::new(),
            queue: VecDeque::new(),
            stats: PresolveStats::default(),
            deadline,
            poll: 0,
            out_of_time: false,
        }
    }

    /// Amortised deadline poll; once expired, passes wind down and the
    /// (still sound) partially-reduced model is emitted.
    fn time_up(&mut self) -> bool {
        if self.out_of_time {
            return true;
        }
        self.poll += 1;
        if self.poll & 0x3ff == 0 {
            if let Some(d) = self.deadline {
                if Instant::now() >= d {
                    self.out_of_time = true;
                }
            }
        }
        self.out_of_time
    }

    /// Resolves a literal to its equivalence-class representative, with
    /// path compression.
    fn find(&mut self, l: Lit) -> Lit {
        let step = |rep: &[Lit], cur: Lit| {
            let r = rep[cur.var().index()];
            if cur.is_negative() {
                !r
            } else {
                r
            }
        };
        let mut root = l;
        loop {
            let next = step(&self.rep, root);
            if next == root {
                break;
            }
            root = next;
        }
        let mut cur = l;
        while cur != root {
            let next = step(&self.rep, cur);
            self.rep[cur.var().index()] = if cur.is_negative() { !root } else { root };
            cur = next;
        }
        root
    }

    fn enqueue(&mut self, l: Lit) {
        self.queue.push_back(l);
    }

    /// Records `a ≡ b`. Returns whether anything changed.
    fn union(&mut self, a: Lit, b: Lit) -> Result<bool, Conflict> {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return Ok(false);
        }
        if ra == !rb {
            return Err(Conflict);
        }
        // If either side is already assigned, the equivalence is just a
        // unit on the other side.
        let va = self.value[ra.var().index()];
        let vb = self.value[rb.var().index()];
        if va != UNASSIGNED {
            let b_true = (va == 1) != ra.is_negative();
            self.enqueue(if b_true { rb } else { !rb });
            return Ok(true);
        }
        if vb != UNASSIGNED {
            let a_true = (vb == 1) != rb.is_negative();
            self.enqueue(if a_true { ra } else { !ra });
            return Ok(true);
        }
        // Lower variable index wins as representative: deterministic.
        let (child, root) = if ra.var().index() < rb.var().index() {
            (rb, ra)
        } else {
            (ra, rb)
        };
        self.rep[child.var().index()] = if child.is_negative() { !root } else { root };
        self.stats.aliased_vars += 1;
        Ok(true)
    }

    /// Drains the unit queue into root assignments.
    fn drain_queue(&mut self) -> Result<bool, Conflict> {
        let mut changed = false;
        while let Some(l) = self.queue.pop_front() {
            let r = self.find(l);
            let want: i8 = if r.is_negative() { 0 } else { 1 };
            let slot = &mut self.value[r.var().index()];
            match *slot {
                UNASSIGNED => {
                    *slot = want;
                    changed = true;
                }
                v if v == want => {}
                _ => return Err(Conflict),
            }
        }
        Ok(changed)
    }

    fn accept_norm(&mut self, nc: NormConstraint) -> Result<(), Conflict> {
        match nc {
            NormConstraint::Unit(l) => self.enqueue(l),
            NormConstraint::Clause(lits) => self.cons.push(Some(Con::Clause(lits))),
            NormConstraint::AtMost { terms, bound } => {
                self.cons.push(Some(Con::AtMost(terms, bound)))
            }
            NormConstraint::False => return Err(Conflict),
        }
        Ok(())
    }

    /// Rewrites one constraint under the current substitution/assignment.
    /// `None` means the constraint was satisfied or replaced by units.
    fn simplify_con(&mut self, con: Con, changed: &mut bool) -> Result<Option<Con>, Conflict> {
        match con {
            Con::Clause(mut lits) => {
                // Rewritten in place: surviving literals are compacted to
                // the front of the same buffer.
                let mut any = false;
                let mut kept = 0;
                for k in 0..lits.len() {
                    let l = lits[k];
                    let r = self.find(l);
                    if r != l {
                        any = true;
                    }
                    match self.value[r.var().index()] {
                        UNASSIGNED => {
                            lits[kept] = r;
                            kept += 1;
                        }
                        v => {
                            any = true;
                            if (v == 1) != r.is_negative() {
                                // Satisfied.
                                *changed = true;
                                self.stats.removed_constraints += 1;
                                return Ok(None);
                            }
                            // False literal: dropped.
                        }
                    }
                }
                lits.truncate(kept);
                lits.sort_unstable();
                lits.dedup();
                // Codes of l and ¬l are adjacent, so a tautology shows up
                // as consecutive entries after sorting.
                if lits.windows(2).any(|w| w[0].var() == w[1].var()) {
                    *changed = true;
                    self.stats.removed_constraints += 1;
                    return Ok(None);
                }
                match lits.len() {
                    0 => Err(Conflict),
                    1 => {
                        self.enqueue(lits[0]);
                        *changed = true;
                        Ok(None)
                    }
                    _ => {
                        if any {
                            *changed = true;
                        }
                        Ok(Some(Con::Clause(lits)))
                    }
                }
            }
            Con::AtMost(terms, bound) => {
                // Merge per variable, tracking coefficients on both
                // polarities: a·x + b·¬x = min(a,b) + |a-b|·(dominant lit).
                // Unassigned terms are sorted by literal code, so each
                // variable's (at most two) polarities end up adjacent.
                let mut live: Vec<(Lit, u64)> = Vec::with_capacity(terms.len());
                let mut bound = i128::from(bound);
                let mut any = false;
                for &(a, l) in &terms {
                    let r = self.find(l);
                    if r != l {
                        any = true;
                    }
                    match self.value[r.var().index()] {
                        UNASSIGNED => live.push((r, a)),
                        v => {
                            any = true;
                            if (v == 1) != r.is_negative() {
                                bound -= i128::from(a);
                            }
                        }
                    }
                }
                live.sort_unstable_by_key(|&(l, _)| l);
                let mut kept: Vec<(u64, Lit)> = Vec::with_capacity(live.len());
                let mut k = 0;
                while k < live.len() {
                    let v = live[k].0.var();
                    let (mut pos, mut neg) = (0u64, 0u64);
                    while k < live.len() && live[k].0.var() == v {
                        if live[k].0.is_negative() {
                            neg += live[k].1;
                        } else {
                            pos += live[k].1;
                        }
                        k += 1;
                    }
                    let base = pos.min(neg);
                    if base > 0 {
                        any = true;
                    }
                    bound -= i128::from(base);
                    match pos.cmp(&neg) {
                        std::cmp::Ordering::Greater => kept.push((pos - neg, Lit::positive(v))),
                        std::cmp::Ordering::Less => kept.push((neg - pos, Lit::negative(v))),
                        std::cmp::Ordering::Equal => {}
                    }
                }
                if bound < 0 {
                    return Err(Conflict);
                }
                let mut norm = crate::normalize::tighten_at_most(
                    kept.clone(),
                    bound as u64,
                    &mut self.stats.strengthened,
                );
                // The common case: the constraint survives unchanged as a
                // single at-most.
                if let [NormConstraint::AtMost { terms: t, bound: b }] = norm.as_mut_slice() {
                    if any || *t != kept || i128::from(*b) != bound {
                        *changed = true;
                    }
                    return Ok(Some(Con::AtMost(std::mem::take(t), *b)));
                }
                *changed = true;
                let mut replacement = None;
                for nc in norm {
                    match nc {
                        NormConstraint::Unit(l) => self.enqueue(l),
                        NormConstraint::False => return Err(Conflict),
                        NormConstraint::Clause(lits) => {
                            debug_assert!(replacement.is_none());
                            replacement = Some(Con::Clause(lits));
                        }
                        NormConstraint::AtMost { terms, bound } => {
                            debug_assert!(replacement.is_none());
                            replacement = Some(Con::AtMost(terms, bound));
                        }
                    }
                }
                if replacement.is_none() {
                    self.stats.removed_constraints += 1;
                }
                Ok(replacement)
            }
        }
    }

    /// One full sweep over all active constraints.
    fn simplify_all(&mut self) -> Result<bool, Conflict> {
        let mut changed = false;
        for i in 0..self.cons.len() {
            if self.time_up() {
                break;
            }
            if let Some(con) = self.cons[i].take() {
                self.cons[i] = self.simplify_con(con, &mut changed)?;
            }
        }
        Ok(changed)
    }

    /// Propagates queued units to fixpoint using occurrence lists, so a
    /// long implication chain does not trigger repeated full sweeps.
    fn propagate(&mut self) -> Result<bool, Conflict> {
        let mut changed = false;
        loop {
            if !self.drain_queue()? {
                return Ok(changed);
            }
            changed = true;
            if self.time_up() {
                return Ok(changed);
            }
            // Occurrence lists per variable as currently stored, in
            // ascending constraint order; valid until the next union
            // (none happen inside this loop).
            let cons = &self.cons;
            let occ: Csr<u32> = Csr::build(self.value.len(), |emit| {
                for (i, con) in cons.iter().enumerate() {
                    match con {
                        Some(Con::Clause(lits)) => {
                            lits.iter().for_each(|l| emit(l.var().index(), i as u32))
                        }
                        Some(Con::AtMost(terms, _)) => terms
                            .iter()
                            .for_each(|(_, l)| emit(l.var().index(), i as u32)),
                        None => {}
                    }
                }
            });
            let mut dirty: VecDeque<u32> = VecDeque::new();
            let mut in_dirty = vec![false; self.cons.len()];
            let mark = |v: usize, dirty: &mut VecDeque<u32>, in_dirty: &mut [bool]| {
                for &i in occ.row(v) {
                    if !in_dirty[i as usize] {
                        in_dirty[i as usize] = true;
                        dirty.push_back(i);
                    }
                }
            };
            // Everything assigned since the occurrence lists were built is
            // unknown, so seed from all currently-assigned variables once,
            // then incrementally from fresh units.
            for v in 0..self.value.len() {
                if self.value[v] != UNASSIGNED {
                    mark(v, &mut dirty, &mut in_dirty);
                }
            }
            let mut fresh: Vec<Lit> = Vec::new();
            while let Some(i) = dirty.pop_front() {
                in_dirty[i as usize] = false;
                if self.time_up() {
                    break;
                }
                if let Some(con) = self.cons[i as usize].take() {
                    let mut local = false;
                    self.cons[i as usize] = self.simplify_con(con, &mut local)?;
                    if local {
                        changed = true;
                    }
                }
                // Fresh units dirty their occurrence lists (under the
                // old variable naming, which units do not change).
                fresh.clear();
                fresh.extend(self.queue.iter().copied());
                self.drain_queue()?;
                for l in &fresh {
                    mark(l.var().index(), &mut dirty, &mut in_dirty);
                }
            }
        }
    }

    /// Merges equivalent-literal classes: strongly connected components of
    /// the binary implication graph (each binary clause `(a ∨ b)`
    /// contributes `¬a → b` and `¬b → a`) are literal equivalence classes.
    /// A component containing both polarities of a variable is a
    /// contradiction.
    fn equiv_pass(&mut self) -> Result<bool, Conflict> {
        let n = self.value.len();
        let cons = &self.cons;
        // Edges in constraint order, so the traversal (and with it the
        // order in which classes are merged) is fixed by the model.
        let adj: Csr<u32> = Csr::build(2 * n, |emit| {
            for con in cons.iter().flatten() {
                if let Con::Clause(lits) = con {
                    if let [a, b] = lits.as_slice() {
                        emit((!*a).code(), b.0);
                        emit((!*b).code(), a.0);
                    }
                }
            }
        });
        if adj.items.is_empty() {
            return Ok(false);
        }
        // Iterative Tarjan SCC.
        const UNVISITED: u32 = u32::MAX;
        let mut index = vec![UNVISITED; 2 * n];
        let mut low = vec![0u32; 2 * n];
        let mut on_stack = vec![false; 2 * n];
        let mut stack: Vec<u32> = Vec::new();
        let mut next_index = 0u32;
        let mut sccs: Vec<Vec<u32>> = Vec::new();
        let mut call: Vec<(u32, u32)> = Vec::new(); // (node, edge cursor)
        for s in 0..2 * n {
            // A literal with no outgoing implication is a singleton
            // component wherever the traversal meets it, so it is never
            // worth starting from; skipping it leaves every recorded
            // component and their order unchanged.
            if index[s] != UNVISITED || adj.row(s).is_empty() {
                continue;
            }
            call.push((s as u32, 0));
            while let Some(frame) = call.last_mut() {
                let (v, cursor) = (frame.0 as usize, frame.1 as usize);
                if cursor == 0 {
                    index[v] = next_index;
                    low[v] = next_index;
                    next_index += 1;
                    stack.push(v as u32);
                    on_stack[v] = true;
                }
                if let Some(&w) = adj.row(v).get(cursor) {
                    frame.1 += 1;
                    let w = w as usize;
                    if index[w] == UNVISITED {
                        call.push((w as u32, 0));
                    } else if on_stack[w] {
                        low[v] = low[v].min(index[w]);
                    }
                } else {
                    if low[v] == index[v] {
                        let mut comp: Vec<u32> = Vec::new();
                        loop {
                            let w = stack.pop().expect("SCC stack holds the root");
                            on_stack[w as usize] = false;
                            comp.push(w);
                            if w as usize == v {
                                break;
                            }
                        }
                        if comp.len() > 1 {
                            comp.sort_unstable();
                            sccs.push(comp);
                        }
                    }
                    call.pop();
                    if let Some(parent) = call.last() {
                        let p = parent.0 as usize;
                        low[p] = low[p].min(low[v]);
                    }
                }
            }
        }
        let mut changed = false;
        for comp in sccs {
            // Both polarities of one variable in the same component means
            // x → ¬x and ¬x → x: infeasible.
            if comp.windows(2).any(|w| w[0] >> 1 == w[1] >> 1) {
                return Err(Conflict);
            }
            let root = Lit(comp[0]);
            for &c in &comp[1..] {
                changed |= self.union(root, Lit(c))?;
            }
        }
        Ok(changed)
    }

    /// Removes syntactic duplicates (clauses and at-mosts); the first
    /// occurrence of each constraint survives.
    fn dedup_pass(&mut self) -> bool {
        // Open addressing over constraint indices, keyed by content hash
        // and confirmed by comparing the constraints themselves.
        const EMPTY: u32 = u32::MAX;
        let live = self.cons.iter().flatten().count();
        let bits = (2 * live).next_power_of_two().max(2).trailing_zeros();
        let mask = (1usize << bits) - 1;
        let mut table: Vec<(u64, u32)> = vec![(0, EMPTY); mask + 1];
        let mut changed = false;
        for i in 0..self.cons.len() {
            let Some(con) = &self.cons[i] else { continue };
            let h = con.content_hash();
            // The high bits of a multiplicative hash are the well-mixed ones.
            let mut slot = (h >> (64 - bits)) as usize;
            let duplicate = loop {
                let (sh, j) = table[slot];
                if j == EMPTY {
                    table[slot] = (h, i as u32);
                    break false;
                }
                if sh == h && self.cons[j as usize].as_ref() == Some(con) {
                    break true;
                }
                slot = (slot + 1) & mask;
            };
            if duplicate {
                self.cons[i] = None;
                self.stats.removed_constraints += 1;
                changed = true;
            }
        }
        changed
    }

    /// Budgeted clause-subsumes-clause elimination via occurrence lists on
    /// the rarest literal.
    fn subsume_pass(&mut self) -> bool {
        let cons = &self.cons;
        let occ: Csr<u32> = Csr::build(2 * self.value.len(), |emit| {
            for (i, con) in cons.iter().enumerate() {
                if let Some(Con::Clause(lits)) = con {
                    lits.iter().for_each(|l| emit(l.code(), i as u32));
                }
            }
        });
        let mut budget = SUBSUME_BUDGET;
        let mut changed = false;
        for i in 0..self.cons.len() {
            if budget == 0 || self.time_up() {
                break;
            }
            // The subsumer is read in place, so the clauses it subsumes
            // are removed after its scan; until then a clause already
            // found (listed twice in a row) is skipped as a removed one.
            let Some(Con::Clause(sub)) = &self.cons[i] else {
                continue;
            };
            let Some(rarest) = sub.iter().min_by_key(|l| occ.row(l.code()).len()) else {
                continue;
            };
            let mut removed: Vec<u32> = Vec::new();
            for &j in occ.row(rarest.code()) {
                let j = j as usize;
                if j == i {
                    continue;
                }
                let Some(Con::Clause(sup)) = &self.cons[j] else {
                    continue;
                };
                if sup.len() < sub.len() || removed.last() == Some(&(j as u32)) {
                    continue;
                }
                budget = budget.saturating_sub((sub.len() + sup.len()) as u64);
                if is_subset(sub, sup) {
                    removed.push(j as u32);
                }
                if budget == 0 {
                    break;
                }
            }
            for j in removed {
                self.cons[j as usize] = None;
                self.stats.removed_constraints += 1;
                changed = true;
            }
        }
        changed
    }

    /// Grows at-most-one cliques from pairwise exclusions and replaces the
    /// covered binary clauses.
    fn clique_pass(&mut self) -> bool {
        let n_lits = 2 * self.value.len();
        let cons = &self.cons;
        // Exclusion adjacency: a binary clause (a ∨ b) forbids ¬a ∧ ¬b,
        // and a short unit-coefficient at-most-one forbids every pair of
        // its literals. Rows are sorted and duplicate-free.
        let mut adj: Csr<u32> = Csr::build(n_lits, |emit| {
            for con in cons.iter().flatten() {
                match con {
                    Con::Clause(lits) => {
                        if let [a, b] = lits.as_slice() {
                            emit((!*a).code(), (!*b).0);
                            emit((!*b).code(), (!*a).0);
                        }
                    }
                    Con::AtMost(terms, 1)
                        if terms.len() <= CLIQUE_SEED_LIMIT
                            && terms.iter().all(|&(a, _)| a == 1) =>
                    {
                        for (p, &(_, x)) in terms.iter().enumerate() {
                            for (q, &(_, y)) in terms.iter().enumerate() {
                                if p != q {
                                    emit(x.code(), y.0);
                                }
                            }
                        }
                    }
                    _ => {}
                }
            }
        });
        adj.sort_dedup_rows();
        let adjacent = |x: u32, y: u32| adj.row(x as usize).binary_search(&y).is_ok();
        // (idx, x, y): clause #idx forbids x ∧ y.
        let binaries: Vec<(usize, Lit, Lit)> = cons
            .iter()
            .enumerate()
            .filter_map(|(i, con)| match con {
                Some(Con::Clause(lits)) => match lits.as_slice() {
                    [a, b] => Some((i, !*a, !*b)),
                    _ => None,
                },
                _ => None,
            })
            .collect();
        // Per literal code, the emitted cliques containing it, ascending;
        // allocated with the first clique.
        let mut member_of: Vec<Vec<u32>> = Vec::new();
        let mut emitted = 0u32;
        let mut clique: Vec<Lit> = Vec::new();
        let mut changed = false;
        for (idx, a, b) in binaries {
            if self.time_up() {
                break;
            }
            if !member_of.is_empty()
                && common(&member_of[a.code()], &member_of[b.code()])
                    .next()
                    .is_some()
            {
                self.cons[idx] = None;
                self.stats.removed_constraints += 1;
                changed = true;
                continue;
            }
            // Greedy growth over the common neighbours, ascending.
            clique.clear();
            clique.push(a);
            if b != a {
                clique.push(b);
            }
            for c in common(adj.row(a.code()), adj.row(b.code())) {
                // A member re-found through a self-exclusion is already in.
                if c != a.0 && c != b.0 && clique.iter().all(|m| adjacent(c, m.0)) {
                    clique.push(Lit(c));
                }
            }
            if clique.len() >= 3 {
                clique.sort_unstable();
                if member_of.is_empty() {
                    member_of.resize_with(n_lits, Vec::new);
                }
                for l in &clique {
                    member_of[l.code()].push(emitted);
                }
                emitted += 1;
                self.cons.push(Some(Con::AtMost(
                    clique.iter().map(|&l| (1, l)).collect(),
                    1,
                )));
                self.stats.cliques += 1;
                self.cons[idx] = None;
                self.stats.removed_constraints += 1;
                changed = true;
            }
        }
        changed
    }
}

fn is_subset(sub: &[Lit], sup: &[Lit]) -> bool {
    // Both sorted.
    let mut it = sup.iter();
    'outer: for l in sub {
        for s in it.by_ref() {
            match s.cmp(l) {
                std::cmp::Ordering::Less => continue,
                std::cmp::Ordering::Equal => continue 'outer,
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

/// Failed-literal probing: a counter-based unit propagator with an undo
/// trail, run over a snapshot of the simplified constraints.
struct Probe {
    clauses: Vec<Vec<Lit>>,
    amts: Vec<(Vec<(u64, Lit)>, u64)>,
    /// Per literal code: `(constraint id, coefficient)`; clause ids are
    /// `0..clauses.len()`, at-most ids follow. Coefficient is 0 for
    /// clauses.
    occ: Csr<(u32, u64)>,
    val: Vec<i8>,
    trail: Vec<Lit>,
    cl_false: Vec<u32>,
    cl_true: Vec<u32>,
    am_sum: Vec<u64>,
    steps: u64,
    budget: u64,
    deadline: Option<Instant>,
    polls: u32,
}

impl Probe {
    fn new(work: &Work, budget: u64) -> Self {
        let n = work.value.len();
        let mut clauses = Vec::new();
        let mut amts = Vec::new();
        for con in work.cons.iter().flatten() {
            match con {
                Con::Clause(lits) => clauses.push(lits.clone()),
                Con::AtMost(terms, bound) => amts.push((terms.clone(), *bound)),
            }
        }
        let nc = clauses.len();
        let occ = Csr::build(2 * n, |emit| {
            for (i, c) in clauses.iter().enumerate() {
                for l in c {
                    emit(l.code(), (i as u32, 0));
                }
            }
            for (i, (terms, _)) in amts.iter().enumerate() {
                for (a, l) in terms {
                    emit(l.code(), ((nc + i) as u32, *a));
                }
            }
        });
        Probe {
            cl_false: vec![0; clauses.len()],
            cl_true: vec![0; clauses.len()],
            am_sum: vec![0; amts.len()],
            clauses,
            amts,
            occ,
            val: work.value.clone(),
            trail: Vec::new(),
            steps: 0,
            budget,
            deadline: work.deadline,
            polls: 0,
        }
    }

    fn lit_true(&self, l: Lit) -> Option<bool> {
        match self.val[l.var().index()] {
            UNASSIGNED => None,
            v => Some((v == 1) != l.is_negative()),
        }
    }

    /// Assigns `l` and propagates. Returns `false` on conflict. Does not
    /// undo — callers snapshot `trail.len()` and call [`Probe::undo`].
    ///
    /// Counter updates for one literal are never interrupted (a conflict
    /// or exhausted budget takes effect only *between* literals), so the
    /// trail always matches the counters exactly and `undo` is safe.
    fn run(&mut self, l: Lit) -> bool {
        let mut queue: VecDeque<Lit> = VecDeque::new();
        queue.push_back(l);
        while let Some(l) = queue.pop_front() {
            match self.lit_true(l) {
                Some(true) => continue,
                Some(false) => return false,
                None => {}
            }
            if self.steps >= self.budget {
                return true; // budget out: treat as "no conflict"
            }
            if let Some(d) = self.deadline {
                self.polls += 1;
                if self.polls & 0xff == 0 && Instant::now() >= d {
                    self.budget = 0;
                    return true;
                }
            }
            self.val[l.var().index()] = if l.is_negative() { 0 } else { 1 };
            self.trail.push(l);
            let nc = self.clauses.len();
            let mut conflict = false;
            // The literal is now true.
            for k in 0..self.occ.row(l.code()).len() {
                let (c, coeff) = self.occ.row(l.code())[k];
                let c = c as usize;
                self.steps += 1;
                if c < nc {
                    self.cl_true[c] += 1;
                } else {
                    let a = c - nc;
                    self.am_sum[a] += coeff;
                    let (terms, bound) = &self.amts[a];
                    if self.am_sum[a] > *bound {
                        conflict = true;
                    } else if !conflict {
                        let slack = *bound - self.am_sum[a];
                        for &(w, t) in terms {
                            if w > slack && self.lit_true(t).is_none() {
                                queue.push_back(!t);
                            }
                        }
                        self.steps += terms.len() as u64;
                    }
                }
            }
            // Its negation is now false. (A false literal in an at-most
            // only loosens it; only clauses can propagate here.)
            let neg = (!l).code();
            for k in 0..self.occ.row(neg).len() {
                let (c, _) = self.occ.row(neg)[k];
                let c = c as usize;
                self.steps += 1;
                if c < nc {
                    self.cl_false[c] += 1;
                    if conflict || self.cl_true[c] > 0 {
                        continue;
                    }
                    let len = self.clauses[c].len() as u32;
                    if self.cl_false[c] == len {
                        conflict = true;
                    } else if self.cl_false[c] == len - 1 {
                        if let Some(&u) = self.clauses[c]
                            .iter()
                            .find(|t| self.lit_true(**t).is_none())
                        {
                            queue.push_back(u);
                        }
                        self.steps += len as u64;
                    }
                }
            }
            if conflict {
                return false;
            }
        }
        true
    }

    fn undo(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let l = self.trail.pop().expect("trail above mark");
            self.val[l.var().index()] = UNASSIGNED;
            let nc = self.clauses.len();
            for &(c, coeff) in self.occ.row(l.code()) {
                let c = c as usize;
                if c < nc {
                    self.cl_true[c] -= 1;
                } else {
                    self.am_sum[c - nc] -= coeff;
                }
            }
            for &(c, _) in self.occ.row((!l).code()) {
                let c = c as usize;
                if c < nc {
                    self.cl_false[c] -= 1;
                }
            }
        }
    }
}

/// Runs the probing phase. Returns the root-fixed literals, or `Err` when
/// both polarities of some variable fail (the model is infeasible).
fn probe_phase(work: &mut Work, budget: u64) -> Result<Vec<Lit>, Conflict> {
    let mut probe = Probe::new(work, budget);
    // Highest-occurrence variables first: their assignments propagate the
    // furthest, so a failed literal prunes the most.
    let n = work.value.len();
    let mut order: Vec<(usize, usize)> = (0..n)
        .filter(|&v| probe.val[v] == UNASSIGNED)
        .map(|v| {
            let occ = probe.occ.row(2 * v).len() + probe.occ.row(2 * v + 1).len();
            (occ, v)
        })
        .filter(|&(occ, _)| occ > 0)
        .collect();
    order.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));

    let mut fixed: Vec<Lit> = Vec::new();
    for (_, v) in order {
        if probe.steps >= probe.budget {
            break;
        }
        if probe.val[v] != UNASSIGNED {
            continue;
        }
        work.stats.probed_vars += 1;
        for lit in [Lit::positive(Var(v as u32)), Lit::negative(Var(v as u32))] {
            if probe.val[v] != UNASSIGNED {
                break;
            }
            let mark = probe.trail.len();
            let ok = probe.run(lit);
            probe.undo(mark);
            if !ok {
                // `lit` fails: ¬lit holds at the root. The root-level
                // propagation is kept on the trail (not undone), so later
                // probes run against the strengthened root state.
                work.stats.failed_literals += 1;
                if !probe.run(!lit) {
                    return Err(Conflict);
                }
                let new_roots: Vec<Lit> = probe.trail[fixed.len()..].to_vec();
                fixed.extend(new_roots);
            }
        }
    }
    Ok(fixed)
}

/// Presolves `model` into an equivalent reduced model.
///
/// The reduction is deterministic: the same model and configuration always
/// produce the same reduced model, so the portfolio's "presolve once,
/// share across workers" scheme keeps `threads = 1` runs reproducible.
pub fn presolve(model: &Model, config: &PresolveConfig) -> Presolved {
    let start = Instant::now();
    let n = model.num_vars();
    let mut work = Work::new(n, config.deadline);
    work.stats.vars_before = n as u64;
    work.stats.constraints_before = model.constraints().len() as u64;

    let infeasible = |mut stats: PresolveStats, start: Instant| {
        stats.elapsed = start.elapsed();
        Presolved::Infeasible { stats }
    };

    for c in model.constraints() {
        for nc in normalize(c) {
            if work.accept_norm(nc).is_err() {
                return infeasible(work.stats, start);
            }
        }
    }

    // Main simplification loop.
    let mut probed = false;
    loop {
        let round_result = (|| -> Result<bool, Conflict> {
            work.stats.rounds += 1;
            let mut changed = work.propagate()?;
            if work.time_up() {
                return Ok(false);
            }
            changed |= work.simplify_all()?;
            changed |= work.propagate()?;
            if work.time_up() {
                return Ok(false);
            }
            changed |= work.equiv_pass()?;
            if changed {
                return Ok(true);
            }
            changed |= work.dedup_pass();
            changed |= work.subsume_pass();
            changed |= work.clique_pass();
            Ok(changed)
        })();
        match round_result {
            Err(Conflict) => return infeasible(work.stats, start),
            Ok(true) if work.stats.rounds < MAX_ROUNDS && !work.out_of_time => continue,
            Ok(_) => {}
        }
        let too_small = model.num_vars() < config.probe_min_vars;
        if probed || config.probe_budget == 0 || too_small || work.out_of_time {
            break;
        }
        probed = true;
        match probe_phase(&mut work, config.probe_budget) {
            Err(Conflict) => return infeasible(work.stats, start),
            Ok(fixed) => {
                if fixed.is_empty() {
                    break;
                }
                for l in fixed {
                    work.enqueue(l);
                }
                // Loop once more to apply the probe fixings.
            }
        }
    }

    match emit(model, &mut work) {
        Err(Conflict) => infeasible(work.stats, start),
        Ok((reduced, reconstruction)) => {
            let mut stats = work.stats;
            stats.vars_after = reduced.num_vars() as u64;
            stats.constraints_after = reduced.constraints().len() as u64;
            stats.fixed_vars = reconstruction
                .dispositions
                .iter()
                .filter(|d| matches!(d, Disposition::Fixed { .. }))
                .count() as u64;
            stats.elapsed = start.elapsed();
            Presolved::Reduced {
                model: reduced,
                reconstruction,
                stats,
            }
        }
    }
}

/// Final phase: free-variable elimination, dense renumbering, and emission
/// of the reduced [`Model`].
fn emit(model: &Model, work: &mut Work) -> Result<(Model, Reconstruction), Conflict> {
    let n = model.num_vars();
    // Flush any pending units before counting.
    work.propagate()?;

    // Substituted objective, keyed by representative variable.
    let mut obj_terms: BTreeMap<Var, i64> = BTreeMap::new();
    let mut obj_constant: i64 = 0;
    let has_objective = model.objective().is_some();
    if let Some(obj) = model.objective() {
        obj_constant = obj.constant();
        for &(c, v) in obj.terms() {
            let r = work.find(v.lit());
            match work.value[r.var().index()] {
                UNASSIGNED => {
                    if r.is_negative() {
                        // c·v = c·(1 - rep) = c - c·rep
                        obj_constant += c;
                        *obj_terms.entry(r.var()).or_insert(0) -= c;
                    } else {
                        *obj_terms.entry(r.var()).or_insert(0) += c;
                    }
                }
                val => {
                    let v_true = (val == 1) != r.is_negative();
                    if v_true {
                        obj_constant += c;
                    }
                }
            }
        }
        obj_terms.retain(|_, c| *c != 0);
    }

    // Representative variables that still appear in some constraint.
    let mut occurs = vec![false; n];
    for con in work.cons.iter().flatten() {
        match con {
            Con::Clause(lits) => {
                for l in lits {
                    occurs[l.var().index()] = true;
                }
            }
            Con::AtMost(terms, _) => {
                for (_, l) in terms {
                    occurs[l.var().index()] = true;
                }
            }
        }
    }
    // A representative constrained by nothing is free: fix it to its
    // objective-preferred polarity (false when indifferent). This is sound
    // for feasibility and preserves the optimum — but unlike unit/probing
    // fixings it is a *choice*, not an entailment, which `Reconstruction`
    // must remember for assumption mapping.
    let mut free_fixed = vec![false; n];
    for (v, &occ) in occurs.iter().enumerate() {
        let var = Var(v as u32);
        let is_rep = work.find(var.lit()) == var.lit();
        if is_rep && work.value[v] == UNASSIGNED && !occ {
            free_fixed[v] = true;
            let coeff = obj_terms.get(&var).copied().unwrap_or(0);
            work.value[v] = i8::from(coeff < 0);
            if coeff != 0 && coeff < 0 {
                obj_constant += coeff;
            }
            obj_terms.remove(&var);
        }
    }

    // Dense renumbering of surviving representatives, in index order.
    let mut reduced = Model::new();
    let mut new_var: Vec<Option<Var>> = vec![None; n];
    for (v, slot) in new_var.iter_mut().enumerate() {
        let var = Var(v as u32);
        if work.find(var.lit()) == var.lit() && work.value[v] == UNASSIGNED {
            *slot = Some(reduced.new_var());
        }
    }
    let map_lit = |l: Lit, new_var: &[Option<Var>]| -> Lit {
        let nv = new_var[l.var().index()].expect("surviving rep has a new index");
        if l.is_negative() {
            Lit::negative(nv)
        } else {
            Lit::positive(nv)
        }
    };

    for con in work.cons.iter().flatten() {
        match con {
            Con::Clause(lits) => {
                reduced.add_clause(lits.iter().map(|&l| map_lit(l, &new_var)));
            }
            Con::AtMost(terms, bound) => {
                let mut expr = LinExpr::new();
                let mut rhs = i128::from(*bound);
                for &(a, l) in terms {
                    let nv = new_var[l.var().index()].expect("surviving rep has a new index");
                    if l.is_negative() {
                        // a·¬v = a - a·v
                        rhs -= i128::from(a);
                        expr.add_term(-(a as i64), nv);
                    } else {
                        expr.add_term(a as i64, nv);
                    }
                }
                reduced.add_le(expr, rhs.clamp(i64::MIN as i128, i64::MAX as i128) as i64);
            }
        }
    }

    if has_objective {
        let mut expr = LinExpr::new();
        for (v, c) in &obj_terms {
            expr.add_term(*c, new_var[v.index()].expect("objective var survives"));
        }
        expr.add_constant(obj_constant);
        reduced.minimize(expr);
    }

    // Branch hints follow their representative, with phase flipped when the
    // representative is the negated literal.
    for &(v, priority, phase) in model.branch_hints() {
        let r = work.find(v.lit());
        if let Some(nv) = new_var[r.var().index()] {
            reduced.suggest_branch(nv, priority, phase != r.is_negative());
        }
    }

    let mut dispositions = Vec::with_capacity(n);
    for v in 0..n {
        let r = work.find(Var(v as u32).lit());
        let d = match work.value[r.var().index()] {
            UNASSIGNED => Disposition::Mapped {
                var: new_var[r.var().index()].expect("unassigned rep survives"),
                negated: r.is_negative(),
            },
            val => Disposition::Fixed {
                value: (val == 1) != r.is_negative(),
                entailed: !free_fixed[r.var().index()],
            },
        };
        dispositions.push(d);
    }

    Ok((reduced, Reconstruction { dispositions }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Model;

    fn reduced(p: &Presolved) -> (&Model, &Reconstruction, &PresolveStats) {
        match p {
            Presolved::Reduced {
                model,
                reconstruction,
                stats,
            } => (model, reconstruction, stats),
            Presolved::Infeasible { .. } => panic!("expected reduced, got infeasible"),
        }
    }

    #[test]
    fn propagation_fixes_chain() {
        let mut m = Model::new();
        let vs = m.new_vars(5);
        m.fix(vs[0], true);
        for w in vs.windows(2) {
            m.add_implies(w[0].lit(), w[1].lit());
        }
        let p = presolve(&m, &PresolveConfig::default());
        let (red, recon, stats) = reduced(&p);
        assert_eq!(red.num_vars(), 0);
        assert_eq!(stats.fixed_vars, 5);
        let full = recon.expand(&Assignment::from_values(vec![]));
        assert!(vs.iter().all(|&v| full.value(v)));
    }

    #[test]
    fn equivalence_merges_implication_cycles() {
        let mut m = Model::new();
        let a = m.new_var();
        let b = m.new_var();
        let c = m.new_var();
        m.add_implies(a.lit(), b.lit());
        m.add_implies(b.lit(), c.lit());
        m.add_implies(c.lit(), a.lit());
        // One extra constraint so the class is not free-eliminated away
        // trivially: a ∨ d.
        let d = m.new_var();
        m.add_clause([a.lit(), d.lit()]);
        let p = presolve(&m, &PresolveConfig::default());
        let (red, recon, stats) = reduced(&p);
        assert!(stats.aliased_vars >= 2, "{stats:?}");
        assert!(red.num_vars() <= 2);
        // Any reduced solution must expand so that a == b == c.
        let vals = Assignment::from_values(vec![true; red.num_vars()]);
        let full = recon.expand(&vals);
        assert_eq!(full.value(a), full.value(b));
        assert_eq!(full.value(b), full.value(c));
    }

    #[test]
    fn duplicate_and_subsumed_clauses_removed() {
        let mut m = Model::new();
        let vs = m.new_vars(4);
        m.add_clause([vs[0].lit(), vs[1].lit()]);
        m.add_clause([vs[0].lit(), vs[1].lit()]); // duplicate
        m.add_clause([vs[0].lit(), vs[1].lit(), vs[2].lit()]); // subsumed
        m.add_clause([vs[2].lit(), vs[3].lit()]);
        let p = presolve(&m, &PresolveConfig::default());
        let (red, _, stats) = reduced(&p);
        assert!(stats.removed_constraints >= 2, "{stats:?}");
        assert_eq!(red.constraints().len(), 2);
    }

    #[test]
    fn clique_detection_builds_at_most_one() {
        let mut m = Model::new();
        let vs = m.new_vars(4);
        // Pairwise exclusion between all four variables, as binary
        // clauses: should collapse into a single at-most-one.
        for i in 0..4 {
            for j in i + 1..4 {
                m.add_clause([!vs[i].lit(), !vs[j].lit()]);
            }
        }
        // Anchor so the variables stay constrained.
        m.add_clause(vs.iter().map(|v| v.lit()));
        let p = presolve(&m, &PresolveConfig::default());
        let (red, _, stats) = reduced(&p);
        assert!(stats.cliques >= 1, "{stats:?}");
        assert!(
            red.constraints().len() <= 3,
            "{} constraints left",
            red.constraints().len()
        );
    }

    #[test]
    fn probing_fixes_forced_variable() {
        let mut m = Model::new();
        let x = m.new_var();
        let y = m.new_var();
        let z = m.new_var();
        // x → y, x → ¬y: probing x=true conflicts, so x is fixed false.
        m.add_implies(x.lit(), y.lit());
        m.add_implies(x.lit(), !y.lit());
        m.add_clause([x.lit(), z.lit()]); // then z is forced true
        let cfg = PresolveConfig {
            probe_min_vars: 0, // the model is tiny; probe it anyway
            ..PresolveConfig::default()
        };
        let p = presolve(&m, &cfg);
        let (red, recon, stats) = reduced(&p);
        assert!(stats.failed_literals >= 1, "{stats:?}");
        assert_eq!(red.num_vars(), 0, "everything should collapse");
        let full = recon.expand(&Assignment::from_values(vec![]));
        assert!(!full.value(x));
        assert!(full.value(z));
    }

    #[test]
    fn probing_both_polarities_failing_is_infeasible() {
        let mut m = Model::new();
        let x = m.new_var();
        let y = m.new_var();
        m.add_implies(x.lit(), y.lit());
        m.add_implies(x.lit(), !y.lit());
        m.add_implies(!x.lit(), y.lit());
        m.add_implies(!x.lit(), !y.lit());
        let cfg = PresolveConfig {
            probe_min_vars: 0,
            ..PresolveConfig::default()
        };
        let p = presolve(&m, &cfg);
        assert!(matches!(p, Presolved::Infeasible { .. }));
    }

    #[test]
    fn small_models_skip_probing_by_default() {
        // Same forced-variable shape as probing_fixes_forced_variable,
        // but under the default config the model is far below
        // `probe_min_vars`, so the probe pass must not run at all.
        let mut m = Model::new();
        let x = m.new_var();
        let y = m.new_var();
        let z = m.new_var();
        m.add_implies(x.lit(), y.lit());
        m.add_implies(x.lit(), !y.lit());
        m.add_clause([x.lit(), z.lit()]);
        let p = presolve(&m, &PresolveConfig::default());
        let (_, _, stats) = reduced(&p);
        assert_eq!(stats.probed_vars, 0, "{stats:?}");
        assert_eq!(stats.failed_literals, 0, "{stats:?}");
    }

    #[test]
    fn free_variables_follow_the_objective() {
        let mut m = Model::new();
        let a = m.new_var();
        let b = m.new_var();
        let mut obj = LinExpr::new();
        obj.add_term(3, a);
        obj.add_term(-2, b);
        m.minimize(obj);
        let p = presolve(&m, &PresolveConfig::default());
        let (red, recon, _) = reduced(&p);
        assert_eq!(red.num_vars(), 0);
        assert_eq!(red.objective().map(|o| o.constant()), Some(-2));
        let full = recon.expand(&Assignment::from_values(vec![]));
        assert!(!full.value(a));
        assert!(full.value(b));
    }

    #[test]
    fn infeasible_root_detected() {
        let mut m = Model::new();
        let x = m.new_var();
        m.fix(x, true);
        m.fix(x, false);
        assert!(matches!(
            presolve(&m, &PresolveConfig::default()),
            Presolved::Infeasible { .. }
        ));
    }

    #[test]
    fn expired_deadline_still_emits_a_sound_model() {
        let mut m = Model::new();
        let vs = m.new_vars(20);
        for w in vs.windows(2) {
            m.add_clause([w[0].lit(), w[1].lit()]);
        }
        let cfg = PresolveConfig {
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            ..PresolveConfig::default()
        };
        let p = presolve(&m, &cfg);
        let (red, recon, _) = reduced(&p);
        // Nothing is guaranteed to be reduced, but the model must still be
        // equivalent: expanding any solution must satisfy the original.
        assert_eq!(recon.num_original_vars(), 20);
        assert!(red.num_vars() <= 20);
    }

    /// Many triangles of pairwise exclusions: disjoint ones, a chain of
    /// overlapping ones sharing an edge with each neighbour, and a band
    /// sharing only vertices. The clique pass must cover them with the
    /// same cliques, removing the same binaries, however its adjacency
    /// and emitted-clique lookups are organised.
    #[test]
    fn clique_pass_on_many_triangles() {
        let mut m = Model::new();
        let vs = m.new_vars(3000);
        let excl = |m: &mut Model, a: usize, b: usize| {
            m.add_clause([!vs[a].lit(), !vs[b].lit()]);
        };
        for t in (0..1200).step_by(3) {
            excl(&mut m, t, t + 1);
            excl(&mut m, t + 1, t + 2);
            excl(&mut m, t, t + 2);
        }
        for t in 1200..2000 {
            excl(&mut m, t, t + 1);
            excl(&mut m, t, t + 2);
        }
        for t in (2000..2990).step_by(2) {
            excl(&mut m, t, t + 1);
            excl(&mut m, t + 1, t + 2);
            excl(&mut m, t, t + 2);
        }
        for block in vs.chunks(10) {
            m.add_clause(block.iter().map(|v| v.lit()));
        }
        let p = presolve(&m, &PresolveConfig::default());
        let (red, _, stats) = reduced(&p);
        assert_eq!(
            (stats.cliques, stats.removed_constraints, stats.rounds),
            (1695, 4285, 2),
            "{stats:?}"
        );
        assert_eq!(red.constraints().len(), 1995);
    }
}
