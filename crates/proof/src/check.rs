//! The independent backward DRAT checker, kept alive across one
//! append-only proof stream.
//!
//! A [`ProofSession`] owns everything it has learned from the bytes it
//! consumed: one record per step, the clause database as of the end of
//! the stream (each deletion resolved to a concrete clause copy), the
//! root trail, and which lemmas are already verified. Each
//! [`ProofSession::check`] call confirms that the stream still begins
//! with the consumed bytes, parses only the new suffix, and walks
//! **backwards** from the stream's final lemma. A lemma is RUP-checked
//! only if some later check used it as an antecedent — the rest of the
//! proof is dead weight and is skipped, which is both the classic
//! performance trick and the *trimming* output. The walk stops as soon as
//! no unverified lemma it marked lies below it, and the walked suffix is
//! then replayed forward so the next call starts from the end of the
//! stream again. [`check_proof`] is a session with one call.
//!
//! The memo is sound because a lemma's RUP check at its step sees the
//! stream's inputs plus the earlier lemmas still active there. Appending
//! to the stream only adds inputs (propagation is monotone in the clause
//! set) and places new lemmas and deletions *after* every consumed step,
//! so a lemma verified once stays verified for the session's lifetime.
//! A call's antecedents stop at memoized lemmas, so its core counts cover
//! only the new work; a rejected stream stays rejected.
//!
//! A RUP (reverse unit propagation) check of clause `C` asserts the
//! negation of every literal of `C` on top of the persistent root trail
//! and requires unit propagation to derive a conflict. Propagation uses
//! two watched literals per clause; clauses leave and re-enter the
//! database as the walk crosses addition and deletion steps, so watch
//! entries carry a generation stamp and are dropped lazily when stale.
//! When a clause that currently *forces* a root literal is deactivated,
//! the checker first looks for another active clause that forces the
//! same literal from strictly earlier trail literals and makes it the
//! reason (a reason swap: the trail stays as it is). Only when there is
//! none is the trail truncated from that literal and the propagation
//! queue rewound to zero — re-scanning the surviving prefix is what keeps
//! the watch invariants sound across mid-trail truncation, which
//! ordinary CDCL backtracking never does.
//!
//! Input clauses (`i` steps) are axioms: they stay active at every
//! position, so a lemma may freely use inputs that appear later in the
//! stream (the incremental solver grows the formula between solve
//! calls), while lemmas may only use *earlier* lemmas — the backward
//! walk deactivates each lemma before checking it, which rules out
//! circular justification structurally.

use std::collections::HashMap;

use crate::parse::{parse_step, parse_step_into, StepKind};
use crate::ProofError;

const UNDEF: u8 = 2;
const TRUE: u8 = 1;
const FALSE: u8 = 0;

/// No clause: an unset `reason`, or the end of a copy chain.
const NO_CLAUSE: u32 = u32::MAX;
const NO_REASON: u32 = NO_CLAUSE;

// Clause header layout, in arena words from the clause reference: the
// length with the flags below in its top bits, the generation (bumped on
// every reactivation; watch entries with an older stamp are stale and
// dropped lazily), the two watched literals, the variable the clause
// currently forces on the trail (0: none; checked against `reason[var]`
// before trusting it), the session call whose checks last used the clause
// (0: none), and the previous active copy with the same hash. The
// literals follow, sorted by (variable, sign) and deduplicated.
const H_LEN: usize = 0;
const H_GEN: usize = 1;
const H_W0: usize = 2;
const H_W1: usize = 3;
const H_REASON: usize = 4;
const H_CORE: usize = 5;
const H_PREV: usize = 6;
const HEADER: usize = 7;
const ACTIVE: u32 = 1 << 31;
/// A later step of the stream deletes this copy.
const DELETED: u32 = 1 << 30;
/// A lemma some call of this session verified at its step.
const VERIFIED: u32 = 1 << 29;
const INPUT: u32 = 1 << 28;
/// Contains both `l` and `¬l`: trivially valid and propagationally
/// inert, so never watched and never RUP-checked.
const TAUTOLOGY: u32 = 1 << 27;
const LEN_MASK: u32 = TAUTOLOGY - 1;

/// What one successful check reports. The counts cover this call's work
/// only: the steps it parsed and the lemmas it verified. For
/// [`check_proof`], a one-call session, that is the whole stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckOutcome {
    /// Steps parsed by this call.
    pub steps: usize,
    /// Input (`i`) steps parsed by this call.
    pub inputs: usize,
    /// Lemma (`a`) steps parsed by this call.
    pub lemmas: usize,
    /// Deletion (`d`) steps parsed by this call.
    pub deletions: usize,
    /// Lemmas on the core that this call verified, each RUP-checked
    /// (or a tautology). A lemma an earlier call of the same session
    /// verified is neither checked again nor counted.
    pub core_lemmas: usize,
    /// Input clauses this call's checks used. Checks stop at memoized
    /// lemmas, so in a session this is part of the query's input core;
    /// the full core of one query needs a fresh [`check_proof`].
    pub core_inputs: usize,
    /// The certified final clause (sorted), i.e. the last lemma of the
    /// stream. Empty means the inputs were refuted outright; non-empty
    /// is the assumption-conflict clause of an incremental query.
    pub final_clause: Vec<i32>,
}

impl CheckOutcome {
    /// Fraction of the lemmas the refutation actually used; `1.0 -
    /// trim_ratio()` is the share of the proof that trimming discards.
    /// Meaningful for a whole-stream check: a later session call may
    /// verify lemmas that an earlier call parsed.
    pub fn trim_ratio(&self) -> f64 {
        if self.lemmas == 0 {
            0.0
        } else {
            self.core_lemmas as f64 / self.lemmas as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Watch {
    cref: u32,
    gen: u32,
    blocker: i32,
}

/// A propagation conflict: the falsified clause (if any) and the literal
/// whose enqueue failed (0 when the clause was found falsified outright).
#[derive(Debug, Clone, Copy)]
struct Conflict {
    cause: Option<u32>,
    lit: i32,
}

#[inline]
fn enc(l: i32) -> usize {
    ((l.unsigned_abs() as usize - 1) << 1) | usize::from(l < 0)
}

/// Sorts by (variable, sign) and dedups, in place.
fn normalize(lits: &mut Vec<i32>) {
    lits.sort_unstable_by_key(|&l| (l.unsigned_abs(), l < 0));
    lits.dedup();
}

/// FNV-1a over a normalized clause: the key of the deletion index.
fn clause_hash(lits: &[i32]) -> u64 {
    lits.iter().fold(0xcbf2_9ce4_8422_2325, |h, &l| {
        (h ^ u64::from(l as u32)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[derive(Debug, Default)]
struct Checker {
    /// Every clause in one flat arena, in stream order: a header, then
    /// the literals. A clause reference (`cref`) is the header's offset.
    arena: Vec<i32>,
    /// The newest active copy of each clause by [`clause_hash`] (deletions
    /// name clauses by content; multiset semantics). Older copies with
    /// the same hash are chained through their headers.
    copies: HashMap<u64, u32>,
    /// `watches[enc(x)]`: clauses currently watching literal `x`.
    watches: Vec<Vec<Watch>>,
    /// Truth value per variable (1-based index).
    assign: Vec<u8>,
    reason: Vec<u32>,
    trail_pos: Vec<usize>,
    trail: Vec<i32>,
    qhead: usize,
    /// Every size-1 clause; the active ones are re-enqueued after trail
    /// truncation (unit clauses have no watches, so nothing else would
    /// re-derive them).
    units: Vec<u32>,
    /// Clauses suspected falsified under the root assignment; validated
    /// lazily before each use.
    falsified: Vec<u32>,
    /// A truncation happened since the last unit re-enqueue.
    dirty: bool,
    mark: Vec<u32>,
    stamp: u32,
    /// The variables `mark_core` has yet to visit.
    stack: Vec<usize>,
    /// The current session call, stamped on the clauses its checks use.
    call: u32,
    /// Lemmas this call marked that are not yet verified.
    pending: usize,
    /// Lemmas this call added to the verified core.
    core_lemmas: usize,
    /// Inputs this call's checks used.
    core_inputs: usize,
}

impl Checker {
    #[inline]
    fn get(&self, cref: u32, field: usize) -> u32 {
        self.arena[cref as usize + field] as u32
    }

    #[inline]
    fn put(&mut self, cref: u32, field: usize, value: u32) {
        self.arena[cref as usize + field] = value as i32;
    }

    #[inline]
    fn has(&self, cref: u32, flag: u32) -> bool {
        self.get(cref, H_LEN) & flag != 0
    }

    fn set(&mut self, cref: u32, flag: u32, on: bool) {
        let word = self.get(cref, H_LEN) & !flag;
        self.put(cref, H_LEN, if on { word | flag } else { word });
    }

    #[inline]
    fn lits(&self, cref: u32) -> &[i32] {
        let at = cref as usize + HEADER;
        &self.arena[at..at + (self.get(cref, H_LEN) & LEN_MASK) as usize]
    }

    fn reserve(&mut self, lits: &[i32]) {
        let maxv = lits.iter().map(|l| l.unsigned_abs()).max().unwrap_or(0) as usize;
        if maxv >= self.assign.len() {
            self.assign.resize(maxv + 1, UNDEF);
            self.reason.resize(maxv + 1, NO_REASON);
            self.trail_pos.resize(maxv + 1, 0);
            self.mark.resize(maxv + 1, 0);
            self.watches.resize(2 * maxv, Vec::new());
        }
    }

    /// Appends an active, not yet attached clause with the normalized
    /// literals `lits`, as the newest copy of its content.
    fn new_clause(&mut self, lits: &[i32], input: bool) -> u32 {
        self.reserve(lits);
        let at = self.arena.len();
        assert!(
            at < NO_CLAUSE as usize && lits.len() <= LEN_MASK as usize,
            "checker arena exceeds 32-bit offsets"
        );
        let cref = at as u32;
        if lits.len() == 1 {
            self.units.push(cref);
        }
        let tautology = lits
            .windows(2)
            .any(|w| w[0].unsigned_abs() == w[1].unsigned_abs());
        let flags = ACTIVE
            | lits.len() as u32
            | if input { INPUT } else { 0 }
            | if tautology { TAUTOLOGY } else { 0 };
        let prev = self.copies.insert(clause_hash(lits), cref);
        let prev = prev.unwrap_or(NO_CLAUSE) as i32;
        self.arena
            .extend_from_slice(&[flags as i32, 0, 0, 0, 0, 0, prev]);
        self.arena.extend_from_slice(lits);
        cref
    }

    /// Unlinks and returns the newest active copy of the normalized
    /// clause `lits`, preferring a lemma copy over an input copy (inputs
    /// are axioms; when the producer's root-level GC deletes an input
    /// clause, its level-0-stripped form was also logged as a lemma, so
    /// the lemma copy is the one to spend).
    fn take_copy(&mut self, lits: &[i32]) -> Option<u32> {
        let hash = clause_hash(lits);
        // The chosen copy and the next newer copy on its chain.
        let mut found: Option<(u32, u32)> = None;
        let (mut newer, mut c) = (NO_CLAUSE, *self.copies.get(&hash)?);
        while c != NO_CLAUSE {
            if self.lits(c) == lits {
                if !self.has(c, INPUT) {
                    found = Some((c, newer));
                    break;
                }
                found = found.or(Some((c, newer)));
            }
            (newer, c) = (c, self.get(c, H_PREV));
        }
        let (cref, newer) = found?;
        let prev = self.get(cref, H_PREV);
        if newer != NO_CLAUSE {
            self.put(newer, H_PREV, prev);
        } else if prev != NO_CLAUSE {
            self.copies.insert(hash, prev);
        } else {
            self.copies.remove(&hash);
        }
        Some(cref)
    }

    #[inline]
    fn value(&self, l: i32) -> u8 {
        let a = self.assign[l.unsigned_abs() as usize];
        if a == UNDEF {
            UNDEF
        } else if l < 0 {
            a ^ 1
        } else {
            a
        }
    }

    #[inline]
    fn assign_lit(&mut self, l: i32, r: u32) {
        let v = l.unsigned_abs() as usize;
        debug_assert_eq!(self.assign[v], UNDEF);
        self.assign[v] = if l < 0 { FALSE } else { TRUE };
        self.reason[v] = r;
        self.trail_pos[v] = self.trail.len();
        self.trail.push(l);
        if r != NO_REASON {
            self.put(r, H_REASON, v as u32);
        }
    }

    fn watch(&mut self, cref: u32, a: i32, b: i32) {
        let gen = self.get(cref, H_GEN);
        self.arena[cref as usize + H_W0] = a;
        self.arena[cref as usize + H_W1] = b;
        self.watches[enc(a)].push(Watch {
            cref,
            gen,
            blocker: b,
        });
        self.watches[enc(b)].push(Watch {
            cref,
            gen,
            blocker: a,
        });
    }

    /// Establishes the watch/unit invariants of an active clause under
    /// the *current* root assignment.
    fn attach(&mut self, cref: u32) {
        if self.has(cref, TAUTOLOGY) {
            return;
        }
        match *self.lits(cref) {
            [] => self.falsified.push(cref),
            [l] => match self.value(l) {
                UNDEF => self.assign_lit(l, cref),
                FALSE => self.falsified.push(cref),
                _ => {}
            },
            [l0, l1, ..] => {
                let lits = self.lits(cref).iter().copied();
                let mut free = lits.filter(|&y| self.value(y) != FALSE);
                match (free.next(), free.next()) {
                    (Some(a), Some(b)) => self.watch(cref, a, b),
                    (Some(a), None) => {
                        // Unit (or satisfied): the second watch is a
                        // falsified literal, which is safe because `a`
                        // only becomes unassigned by a truncation, and
                        // that rewinds the queue to zero and re-scans the
                        // falsifier.
                        let b = if a == l0 { l1 } else { l0 };
                        self.watch(cref, a, b);
                        if self.value(a) == UNDEF {
                            self.assign_lit(a, cref);
                        }
                    }
                    (None, _) => {
                        self.watch(cref, l0, l1);
                        self.falsified.push(cref);
                    }
                }
            }
        }
    }

    /// Re-enters a clause the walk crosses backwards over its deletion
    /// step (or forwards over its addition step).
    fn reactivate(&mut self, cref: u32) {
        self.put(cref, H_GEN, self.get(cref, H_GEN) + 1);
        self.set(cref, ACTIVE, true);
        self.attach(cref);
    }

    /// Unassigns the trail suffix from `pos` and rewinds the propagation
    /// queue to zero: the surviving prefix is self-justified (reasons only
    /// point backwards), but units it implied may have been cut out, so
    /// the whole prefix must be re-scanned for propagation completeness.
    fn truncate_from(&mut self, pos: usize) {
        for i in pos..self.trail.len() {
            let v = self.trail[i].unsigned_abs() as usize;
            self.assign[v] = UNDEF;
            self.reason[v] = NO_REASON;
        }
        self.trail.truncate(pos);
        self.qhead = 0;
        self.dirty = true;
    }

    fn deactivate(&mut self, cref: u32) {
        self.set(cref, ACTIVE, false);
        let rv = self.get(cref, H_REASON);
        self.put(cref, H_REASON, 0);
        if rv == 0 {
            return;
        }
        let v = rv as usize;
        if self.assign[v] == UNDEF || self.reason[v] != cref {
            return;
        }
        let pos = self.trail_pos[v];
        match self.other_reason(self.trail[pos], pos) {
            Some(r) => {
                self.reason[v] = r;
                self.put(r, H_REASON, rv);
            }
            None => self.truncate_from(pos),
        }
    }

    /// An active clause that forces the root literal `l` at trail
    /// position `pos` from literals strictly before it, searched among
    /// the clauses watching `l`. Every other literal of the clause must
    /// be false at an earlier position, so the trail stays self-justified
    /// with it as `l`'s reason.
    fn other_reason(&self, l: i32, pos: usize) -> Option<u32> {
        self.watches[enc(l)].iter().find_map(|w| {
            let lits = self.lits(w.cref);
            let forces = self.has(w.cref, ACTIVE)
                && self.get(w.cref, H_GEN) == w.gen
                && lits.contains(&l)
                && lits.iter().all(|&y| {
                    y == l
                        || (self.value(y) == FALSE
                            && self.trail_pos[y.unsigned_abs() as usize] < pos)
                });
            forces.then_some(w.cref)
        })
    }

    /// Two-watched-literal unit propagation. On conflict the queue is
    /// left pointing at the triggering literal so the conflict is
    /// re-findable after the database changes.
    fn propagate(&mut self) -> Option<Conflict> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            let widx = enc(-p);
            let mut ws = std::mem::take(&mut self.watches[widx]);
            let mut i = 0;
            let mut j = 0;
            let mut confl: Option<Conflict> = None;
            'entries: while i < ws.len() {
                let w = ws[i];
                i += 1;
                if !self.has(w.cref, ACTIVE) || self.get(w.cref, H_GEN) != w.gen {
                    continue; // stale entry: drop
                }
                if self.value(w.blocker) == TRUE {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                let c = w.cref as usize;
                let (w0, w1) = (self.arena[c + H_W0], self.arena[c + H_W1]);
                let (other, falsified) = if w0 == -p { (w1, H_W0) } else { (w0, H_W1) };
                if self.value(other) == TRUE {
                    ws[j] = Watch {
                        blocker: other,
                        ..w
                    };
                    j += 1;
                    continue;
                }
                let replacement = self
                    .lits(w.cref)
                    .iter()
                    .copied()
                    .find(|&y| y != w0 && y != w1 && self.value(y) != FALSE);
                if let Some(y) = replacement {
                    self.arena[c + falsified] = y;
                    self.watches[enc(y)].push(Watch {
                        blocker: other,
                        ..w
                    });
                    continue; // moved off this list
                }
                // Unit or conflicting on `other`.
                ws[j] = Watch {
                    blocker: other,
                    ..w
                };
                j += 1;
                if self.value(other) == FALSE {
                    while i < ws.len() {
                        ws[j] = ws[i];
                        j += 1;
                        i += 1;
                    }
                    confl = Some(Conflict {
                        cause: Some(w.cref),
                        lit: other,
                    });
                    break 'entries;
                }
                self.assign_lit(other, w.cref);
            }
            ws.truncate(j);
            self.watches[widx] = ws;
            if confl.is_some() {
                // Leave qhead at `p`: re-propagation re-finds the
                // conflict for as long as it persists.
                return confl;
            }
            self.qhead += 1;
        }
        None
    }

    /// Brings the root assignment to a propagation fixpoint, reporting a
    /// conflict if the active database is propagationally unsatisfiable.
    fn root_conflict(&mut self) -> Option<Conflict> {
        // Validate suspected-falsified clauses lazily, draining stale
        // entries until one is confirmed (kept for re-discovery) or the
        // list is empty.
        while let Some(&cref) = self.falsified.last() {
            if self.has(cref, ACTIVE) && self.lits(cref).iter().all(|&l| self.value(l) == FALSE) {
                return Some(Conflict {
                    cause: Some(cref),
                    lit: 0,
                });
            }
            self.falsified.pop();
        }
        if self.dirty {
            self.dirty = false;
            let mut confl = None;
            for k in 0..self.units.len() {
                let cref = self.units[k];
                if !self.has(cref, ACTIVE) {
                    continue;
                }
                let l = self.lits(cref)[0];
                match self.value(l) {
                    UNDEF => self.assign_lit(l, cref),
                    FALSE => {
                        self.falsified.push(cref);
                        confl = Some(Conflict {
                            cause: Some(cref),
                            lit: 0,
                        });
                    }
                    _ => {}
                }
            }
            if confl.is_some() {
                return confl;
            }
        }
        if let Some(c) = self.propagate() {
            if let Some(cref) = c.cause {
                // Found at the root: a genuinely falsified clause.
                self.falsified.push(cref);
            }
            return Some(c);
        }
        None
    }

    /// Stamps `cref` as used by this call's checks, counting it once: an
    /// input joins the call's input core, and a lemma no call has
    /// verified yet joins the lemmas the walk must still check.
    fn use_clause(&mut self, cref: u32) {
        if self.get(cref, H_CORE) == self.call {
            return;
        }
        self.put(cref, H_CORE, self.call);
        if self.has(cref, INPUT) {
            self.core_inputs += 1;
        } else if !self.has(cref, VERIFIED) {
            self.core_lemmas += 1;
            if self.has(cref, TAUTOLOGY) {
                self.set(cref, VERIFIED, true);
            } else {
                self.pending += 1;
            }
        }
    }

    /// Marks the conflict's antecedent cone: the falsified clause plus
    /// every reason clause reachable through the implication graph.
    fn mark_core(&mut self, confl: &Conflict) {
        self.stamp += 1;
        let mut stack = std::mem::take(&mut self.stack);
        if let Some(cref) = confl.cause {
            self.use_clause(cref);
            stack.extend(self.lits(cref).iter().map(|l| l.unsigned_abs() as usize));
        }
        if confl.lit != 0 {
            stack.push(confl.lit.unsigned_abs() as usize);
        }
        while let Some(v) = stack.pop() {
            if self.mark[v] == self.stamp {
                continue;
            }
            self.mark[v] = self.stamp;
            if self.assign[v] == UNDEF {
                continue;
            }
            let r = self.reason[v];
            if r == NO_REASON {
                continue;
            }
            self.use_clause(r);
            stack.extend(self.lits(r).iter().map(|l| l.unsigned_abs() as usize));
        }
        self.stack = stack;
    }

    /// RUP check of clause `cref` against the currently active database,
    /// marking antecedents core on success.
    fn rup_check(&mut self, cref: u32) -> bool {
        if let Some(c) = self.root_conflict() {
            self.mark_core(&c);
            return true;
        }
        let root_len = self.trail.len();
        debug_assert_eq!(self.qhead, root_len);
        let mut confl: Option<Conflict> = None;
        for k in 0..self.lits(cref).len() {
            let l = self.arena[cref as usize + HEADER + k];
            match self.value(l) {
                // Asserting ¬l contradicts the root-propagated l: the
                // conflict is l's own reason chain.
                TRUE => {
                    confl = Some(Conflict {
                        cause: None,
                        lit: l,
                    });
                    break;
                }
                FALSE => {}
                _ => self.assign_lit(-l, NO_REASON),
            }
        }
        if confl.is_none() {
            confl = self.propagate();
        }
        // Mark before undoing: marking walks the live reason graph.
        let ok = match &confl {
            Some(c) => {
                self.mark_core(c);
                true
            }
            None => false,
        };
        for i in root_len..self.trail.len() {
            let v = self.trail[i].unsigned_abs() as usize;
            self.assign[v] = UNDEF;
            self.reason[v] = NO_REASON;
        }
        self.trail.truncate(root_len);
        self.qhead = root_len;
        ok
    }

    /// The first inconsistency in the arena, if any: headers that do not
    /// parse exactly to the arena's end; a watch, `units`, `falsified` or
    /// `reason` entry that is not a header (a cref that points into
    /// literals reads a literal as a length); a copy-chain link (an index
    /// entry, or the link of an undeleted copy) that does not name an
    /// undeleted copy with the same hash. Only debug builds run it, after
    /// every append and every forward replay.
    fn arena_fault(&self) -> Option<String> {
        let mut is_header = vec![false; self.arena.len()];
        let mut at = 0;
        while at < self.arena.len() {
            let len = (self.get(at as u32, H_LEN) & LEN_MASK) as usize;
            if at + HEADER + len > self.arena.len() {
                return Some(format!("clause at {at} runs past the arena end"));
            }
            is_header[at] = true;
            at += HEADER + len;
        }
        let header = |c: u32| is_header.get(c as usize).copied().unwrap_or(false);
        let watches = self.watches.iter().flatten().map(|w| ("watch", w.cref));
        let units = self.units.iter().map(|&c| ("units", c));
        let falsified = self.falsified.iter().map(|&c| ("falsified", c));
        let reasons = self.reason.iter().filter(|&&r| r != NO_REASON);
        let mut entries = watches
            .chain(units)
            .chain(falsified)
            .chain(reasons.map(|&r| ("reason", r)));
        if let Some((what, c)) = entries.find(|&(_, c)| !header(c)) {
            return Some(format!("{what} entry {c} is not a header"));
        }
        let index = self.copies.iter().map(|(&hash, &c)| (hash, c));
        let links = (0..self.arena.len() as u32)
            .filter(|&c| header(c) && !self.has(c, DELETED) && self.get(c, H_PREV) != NO_CLAUSE)
            .map(|c| (clause_hash(self.lits(c)), self.get(c, H_PREV)));
        for (hash, c) in index.chain(links) {
            if !header(c) || self.has(c, DELETED) || clause_hash(self.lits(c)) != hash {
                return Some(format!("copy link to {c} is not an undeleted copy"));
            }
        }
        None
    }
}

/// One consumed step: its kind, the clause copy it adds or deletes, and
/// its byte offset (to quote a rejected lemma as the stream wrote it).
#[derive(Debug, Clone, Copy)]
struct StepRec {
    kind: StepKind,
    cref: u32,
    at: usize,
}

/// A checker session for one append-only binary-DRAT stream, such as the
/// proof log of an incremental solver: call [`ProofSession::check`] with
/// the whole stream each time it has grown. Each lemma is RUP-checked at
/// most once per session, so a session's total checking work is linear
/// in the lemmas its refutations use, however many times it is called.
#[derive(Debug, Default)]
pub struct ProofSession {
    /// The stream bytes consumed so far; every call must extend them.
    seen: Vec<u8>,
    steps: Vec<StepRec>,
    /// The literals of the step being parsed.
    buf: Vec<i32>,
    /// The clause of the stream's last lemma.
    last_lemma: Option<u32>,
    chk: Checker,
    /// The first rejection; a rejected stream stays rejected.
    failed: Option<ProofError>,
}

impl ProofSession {
    /// Creates a session that has consumed nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Checks the stream `bytes`, which must extend the bytes every
    /// earlier call consumed.
    ///
    /// The certified claim on success: the conjunction of the stream's
    /// input clauses implies [`CheckOutcome::final_clause`] (the last
    /// lemma). An empty final clause certifies the inputs unsatisfiable.
    /// After an error, every later call returns that error.
    pub fn check(&mut self, bytes: &[u8]) -> Result<CheckOutcome, ProofError> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        let out = self.advance(bytes);
        if let Err(e) = &out {
            self.failed = Some(e.clone());
        }
        out
    }

    fn advance(&mut self, bytes: &[u8]) -> Result<CheckOutcome, ProofError> {
        if !bytes.starts_with(&self.seen) {
            let differs = self.seen.iter().zip(bytes).position(|(a, b)| a != b);
            let offset = differs.unwrap_or(bytes.len());
            return Err(ProofError::PrefixChanged { offset });
        }
        let (inputs, lemmas, deletions) = self.append(bytes)?;
        let target_cref = self.last_lemma.ok_or(ProofError::NoLemma)?;
        let chk = &mut self.chk;
        chk.call += 1;
        chk.core_lemmas = 0;
        chk.core_inputs = 0;
        chk.use_clause(target_cref);
        self.walk()?;
        let mut final_clause = self.chk.lits(target_cref).to_vec();
        final_clause.sort_unstable();
        Ok(CheckOutcome {
            steps: inputs + lemmas + deletions,
            inputs,
            lemmas,
            deletions,
            core_lemmas: self.chk.core_lemmas,
            core_inputs: self.chk.core_inputs,
            final_clause,
        })
    }

    /// Parses the bytes past the consumed prefix into the database,
    /// resolving each deletion to a concrete clause copy, and returns the
    /// new input, lemma and deletion counts.
    fn append(&mut self, bytes: &[u8]) -> Result<(usize, usize, usize), ProofError> {
        let (mut inputs, mut lemmas, mut deletions) = (0, 0, 0);
        let first_new = self.steps.len();
        let mut pos = self.seen.len();
        while pos < bytes.len() {
            let (kind, next) = parse_step_into(bytes, pos, &mut self.buf)?;
            normalize(&mut self.buf);
            let index = self.steps.len();
            let cref = match kind {
                StepKind::Input | StepKind::Add => {
                    let is_input = kind == StepKind::Input;
                    let cref = self.chk.new_clause(&self.buf, is_input);
                    if is_input {
                        inputs += 1;
                    } else {
                        lemmas += 1;
                        self.last_lemma = Some(cref);
                    }
                    cref
                }
                StepKind::Delete => {
                    deletions += 1;
                    let cref =
                        self.chk
                            .take_copy(&self.buf)
                            .ok_or_else(|| ProofError::BogusDeletion {
                                step: index,
                                clause: parse_step(bytes, pos).expect("parsed above").0.lits,
                            })?;
                    self.chk.set(cref, DELETED, true);
                    self.chk.deactivate(cref);
                    cref
                }
            };
            self.steps.push(StepRec {
                kind,
                cref,
                at: pos,
            });
            pos = next;
        }
        // Clauses added and deleted within the suffix are never attached.
        for rec in &self.steps[first_new..] {
            if rec.kind != StepKind::Delete && self.chk.has(rec.cref, ACTIVE) {
                self.chk.attach(rec.cref);
            }
        }
        self.seen.extend_from_slice(&bytes[self.seen.len()..]);
        debug_assert_eq!(
            self.chk.arena_fault(),
            None,
            "checker arena after an append"
        );
        Ok((inputs, lemmas, deletions))
    }

    /// Walks backwards from the end of the stream, reactivating deleted
    /// clauses and deactivating lemmas, RUP-checking each lemma this call
    /// marked that no call has verified. Stops once none is left below
    /// the walk, then replays the walked steps forward.
    fn walk(&mut self) -> Result<(), ProofError> {
        let chk = &mut self.chk;
        let mut i = self.steps.len();
        while chk.pending > 0 {
            i = i
                .checked_sub(1)
                .expect("a pending lemma lies below the walk");
            let StepRec { kind, cref, at } = self.steps[i];
            match kind {
                StepKind::Delete => chk.reactivate(cref),
                StepKind::Input => {}
                StepKind::Add => {
                    chk.deactivate(cref);
                    if chk.get(cref, H_CORE) == chk.call && !chk.has(cref, VERIFIED) {
                        if !chk.rup_check(cref) {
                            let (step, _) =
                                parse_step(&self.seen, at).expect("consumed steps parse");
                            return Err(ProofError::LemmaNotImplied {
                                step: i,
                                clause: step.lits,
                            });
                        }
                        chk.set(cref, VERIFIED, true);
                        chk.pending -= 1;
                    }
                }
            }
        }
        for rec in &self.steps[i..] {
            match rec.kind {
                StepKind::Delete => chk.deactivate(rec.cref),
                StepKind::Input => {}
                StepKind::Add => {
                    if !chk.has(rec.cref, DELETED) {
                        chk.reactivate(rec.cref);
                    }
                }
            }
        }
        debug_assert_eq!(chk.arena_fault(), None, "checker arena after a replay");
        Ok(())
    }
}

/// Checks a complete binary-DRAT stream: a [`ProofSession`] with one
/// call.
///
/// The certified claim on success: the conjunction of the stream's input
/// clauses implies [`CheckOutcome::final_clause`] (the last lemma). An
/// empty final clause certifies the inputs unsatisfiable.
pub fn check_proof(bytes: &[u8]) -> Result<CheckOutcome, ProofError> {
    ProofSession::new().check(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProofWriter;

    #[test]
    fn simple_refutation_is_accepted_and_fully_core() {
        let mut w = ProofWriter::new();
        w.add_input(&[1, 2]);
        w.add_input(&[-1, 2]);
        w.add_input(&[1, -2]);
        w.add_input(&[-1, -2]);
        w.add_lemma(&[2]);
        w.add_lemma(&[]);
        let out = check_proof(w.bytes()).expect("valid refutation");
        assert_eq!(out.steps, 6);
        assert_eq!((out.inputs, out.lemmas, out.deletions), (4, 2, 0));
        assert_eq!(out.core_lemmas, 2);
        assert_eq!(out.core_inputs, 4);
        assert!(out.final_clause.is_empty());
        assert!((out.trim_ratio() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn unused_lemmas_are_trimmed() {
        let mut w = ProofWriter::new();
        w.add_input(&[1]);
        w.add_input(&[-1]);
        w.add_input(&[7, 8]); // irrelevant input
        w.add_lemma(&[7]); // RUP? assert -7: no conflict... must be implied!
        w.add_lemma(&[]);
        // Lemma [7] is NOT implied, but it is also not on the core, so
        // backward checking never examines it: trimming in action.
        let out = check_proof(w.bytes()).expect("refutation via units");
        assert_eq!(out.core_lemmas, 1);
        assert_eq!(out.core_inputs, 2);
        assert!(out.trim_ratio() < 1.0);
    }

    #[test]
    fn non_core_bogus_lemma_still_requires_core_to_hold() {
        // Same stream but with the refutation broken: now the checker
        // must reject, proving the trim does not skip *needed* steps.
        let mut w = ProofWriter::new();
        w.add_input(&[1]);
        w.add_input(&[7, 8]);
        w.add_lemma(&[]);
        match check_proof(w.bytes()) {
            Err(ProofError::LemmaNotImplied { step, .. }) => assert_eq!(step, 2),
            other => panic!("expected LemmaNotImplied at step 2, got {other:?}"),
        }
    }

    #[test]
    fn final_nonempty_lemma_is_certified() {
        // The assumption-conflict shape: the stream ends with a
        // non-empty clause implied by the inputs.
        let mut w = ProofWriter::new();
        w.add_input(&[1]);
        w.add_input(&[-1, 2]);
        w.add_lemma(&[2]);
        let out = check_proof(w.bytes()).expect("implied unit");
        assert_eq!(out.final_clause, vec![2]);
        assert_eq!(out.core_inputs, 2);
    }

    #[test]
    fn tautology_lemma_is_trivially_valid() {
        let mut w = ProofWriter::new();
        w.add_input(&[5]);
        w.add_lemma(&[2, -2]);
        let out = check_proof(w.bytes()).expect("tautology");
        assert_eq!(out.final_clause, vec![-2, 2]);
        assert_eq!(out.core_inputs, 0);
    }

    #[test]
    fn deletion_before_use_is_rejected() {
        let mut w = ProofWriter::new();
        w.add_input(&[1, 2]);
        w.add_input(&[-1, 2]);
        w.add_input(&[-2, 3]);
        w.add_input(&[-2, -3]);
        w.add_lemma(&[2]);
        w.delete(&[2]); // retire the lemma...
        w.add_lemma(&[]); // ...then use it: without [2] nothing propagates
        match check_proof(w.bytes()) {
            Err(ProofError::LemmaNotImplied { step, .. }) => assert_eq!(step, 6),
            other => panic!("expected LemmaNotImplied at step 6, got {other:?}"),
        }
    }

    #[test]
    fn deletion_after_use_is_accepted() {
        let mut w = ProofWriter::new();
        w.add_input(&[1, 2]);
        w.add_input(&[-1, 2]);
        w.add_input(&[-2, 3]);
        w.add_input(&[-2, -3]);
        w.add_lemma(&[2]);
        w.add_lemma(&[3]);
        w.delete(&[2]);
        w.add_lemma(&[]);
        let out = check_proof(w.bytes()).expect("deletion after use");
        assert_eq!(out.deletions, 1);
        assert_eq!(out.core_lemmas, 3);
    }

    #[test]
    fn bogus_deletion_is_rejected_with_step_index() {
        let mut w = ProofWriter::new();
        w.add_input(&[1, 2]);
        w.delete(&[3, 4]);
        w.add_lemma(&[]);
        match check_proof(w.bytes()) {
            Err(ProofError::BogusDeletion { step, clause }) => {
                assert_eq!(step, 1);
                assert_eq!(clause, vec![3, 4]);
            }
            other => panic!("expected BogusDeletion at step 1, got {other:?}"),
        }
    }

    #[test]
    fn double_deletion_of_single_copy_is_bogus() {
        let mut w = ProofWriter::new();
        w.add_input(&[-1]);
        w.add_lemma(&[1, 2]); // not implied, but never on the core
        w.delete(&[1, 2]);
        w.delete(&[2, 1]); // same clause modulo order: no copy left
        w.add_lemma(&[]);
        match check_proof(w.bytes()) {
            Err(ProofError::BogusDeletion { step, .. }) => assert_eq!(step, 3),
            other => panic!("expected BogusDeletion at step 3, got {other:?}"),
        }
    }

    #[test]
    fn multiset_deletion_consumes_one_copy_at_a_time() {
        let mut w = ProofWriter::new();
        w.add_input(&[1]);
        w.add_input(&[-1, 2]);
        w.add_lemma(&[2]);
        w.add_lemma(&[2]); // second copy of the same lemma
        w.delete(&[2]); // removes one copy; the other remains usable
        w.add_input(&[-2]);
        w.add_lemma(&[]);
        let out = check_proof(w.bytes()).expect("one copy survives");
        assert_eq!(out.deletions, 1);
    }

    #[test]
    fn deletion_spends_the_newest_lemma_copy_before_any_input_copy() {
        // `[1, 2]` exists as an input and as a lemma; the deletion must
        // spend the lemma, so the input stays an axiom and the refutation
        // uses no lemma but the final one. Spending the input instead
        // would put the lemma copy on the core (`core_lemmas == 2`).
        let mut lemma_newest = ProofWriter::new();
        lemma_newest.add_input(&[1, 2]);
        lemma_newest.add_lemma(&[2, 1]);
        lemma_newest.delete(&[1, 2]);
        // The input copy is the newest here: the lemma is still preferred.
        let mut input_newest = ProofWriter::new();
        input_newest.add_input(&[1, 3]);
        input_newest.add_input(&[-3, 2]);
        input_newest.add_lemma(&[1, 2]);
        input_newest.add_input(&[2, 1]);
        input_newest.delete(&[1, 2]);
        for mut w in [lemma_newest, input_newest] {
            w.add_input(&[-1]);
            w.add_input(&[-2]);
            w.add_lemma(&[]);
            let out = check_proof(w.bytes()).expect("the input copy survives");
            assert_eq!((out.core_lemmas, out.core_inputs), (1, 3));
        }
    }

    #[test]
    fn empty_stream_and_lemma_free_stream_are_rejected() {
        assert_eq!(check_proof(&[]), Err(ProofError::NoLemma));
        let mut w = ProofWriter::new();
        w.add_input(&[1]);
        w.add_input(&[-1]);
        assert_eq!(check_proof(w.bytes()), Err(ProofError::NoLemma));
    }

    #[test]
    fn contradictory_unit_inputs_refute() {
        let mut w = ProofWriter::new();
        w.add_input(&[4]);
        w.add_input(&[-4]);
        w.add_lemma(&[]);
        let out = check_proof(w.bytes()).expect("unit clash");
        assert_eq!(out.core_inputs, 2);
    }

    #[test]
    fn inputs_after_lemmas_are_usable_axioms() {
        // The incremental stream shape: a lemma from an early solve call,
        // then formula growth, then a refutation using both.
        let mut w = ProofWriter::new();
        w.add_input(&[1, 2]);
        w.add_input(&[-1, 2]);
        w.add_lemma(&[2]); // call 1 derives this
        w.add_input(&[-2]); // formula grows between calls
        w.add_lemma(&[]); // call 2 refutes
        let out = check_proof(w.bytes()).expect("incremental shape");
        assert_eq!(out.core_lemmas, 2);
        assert_eq!(out.core_inputs, 3);
    }

    #[test]
    fn pigeonhole_resolution_chain_is_accepted() {
        // 3 pigeons / 2 holes with a hand-built resolution-style DRUP
        // derivation; every lemma is RUP at its position.
        // Vars: p(i,j) = i*2 + j + 1 for pigeon i, hole j.
        let v = |i: i32, j: i32| i * 2 + j + 1;
        let mut w = ProofWriter::new();
        for i in 0..3 {
            w.add_input(&[v(i, 0), v(i, 1)]);
        }
        for j in 0..2 {
            for a in 0..3 {
                for b in (a + 1)..3 {
                    w.add_input(&[-v(a, j), -v(b, j)]);
                }
            }
        }
        // Assume pigeon 0 in hole 0: pigeons 1,2 must share hole 1.
        w.add_lemma(&[-v(0, 0), v(1, 1)]);
        w.add_lemma(&[-v(0, 0), v(2, 1)]);
        w.add_lemma(&[-v(0, 0)]);
        // So pigeon 0 is in hole 1; pigeons 1,2 must share hole 0.
        w.add_lemma(&[v(0, 1)]);
        w.add_lemma(&[v(1, 0)]);
        w.add_lemma(&[v(2, 0)]);
        w.add_lemma(&[]);
        let out = check_proof(w.bytes()).expect("pigeonhole refutation");
        assert!(out.final_clause.is_empty());
        assert!(out.core_lemmas >= 4);
    }

    #[test]
    fn deactivated_reason_is_swapped_for_an_earlier_forcing_clause() {
        // `11` is first forced by the unit lemma; the input `¬10 ∨ 11`
        // forces it too, from `10`, which sits earlier on the trail.
        let mut chk = Checker::default();
        let unit = chk.new_clause(&[10], true);
        let lemma = chk.new_clause(&[11], false);
        let input = chk.new_clause(&[-10, 11], true);
        for cref in [unit, lemma, input] {
            chk.attach(cref);
        }
        assert_eq!((chk.trail.clone(), chk.reason[11]), (vec![10, 11], lemma));
        chk.deactivate(lemma);
        assert_eq!((chk.trail.clone(), chk.reason[11]), (vec![10, 11], input));
        assert!(!chk.dirty, "a swap keeps the trail and the queue");
        // No other clause forces `11` now: the trail is cut from it.
        chk.deactivate(input);
        assert_eq!(chk.trail, vec![10]);
        assert!(chk.dirty);
    }

    #[test]
    fn flipped_literal_in_core_lemma_is_rejected_at_its_step() {
        // Chain 1→2→3: [3] is implied, the flipped [-3] is not.
        let mut w = ProofWriter::new();
        w.add_input(&[1]);
        w.add_input(&[-1, 2]);
        w.add_input(&[-2, 3]);
        w.add_lemma(&[-3]);
        match check_proof(w.bytes()) {
            Err(ProofError::LemmaNotImplied { step, clause }) => {
                assert_eq!(step, 3);
                assert_eq!(clause, vec![-3]);
            }
            other => panic!("expected LemmaNotImplied at step 3, got {other:?}"),
        }
    }
}
