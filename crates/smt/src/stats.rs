//! Solver counters, declared once.
//!
//! [`solver_stats!`](crate::solver_stats) holds the one list of the
//! counters a [`crate::Solver::check`] call reports. Each entry gives a
//! field name, its type, a merge rule and a doc line. The merge rule says
//! how per-call values fold into a total:
//!
//! * `sum` — work that adds up across calls (conflicts, clauses, time);
//! * `max` — a high-water mark (CNF variables, active assertions).
//!
//! From that list the macro generates the struct with its `Default`, a
//! field-wise `merge`, `absorb` of one [`SolverStats`] delta, and the
//! [`Stats`] field visitor that [`Stats::to_json`] — the one writer of
//! every report's counter block — walks. [`SolverStats`] is the list on
//! its own; hk-core's `PhaseStats` invokes the macro again with fields
//! of its own in front. Adding a counter is one entry in the list.

use std::fmt::Write;
use std::time::Duration;

/// How a counter folds into a total.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Merge {
    /// Add the values.
    Sum,
    /// Keep the larger value.
    Max,
}

/// A counter value: how it merges and how it prints.
pub trait Counter {
    /// Folds `other` in by `rule`.
    fn merge(&mut self, other: &Self, rule: Merge)
    where
        Self: Sized;
    /// Sets the counter to `n` units (microseconds for times).
    fn set(&mut self, n: u64);
    /// Writes `"key": value`. Times print as `"key_s"` in seconds.
    fn write_json(&self, key: &str, out: &mut String);
}

macro_rules! int_counter {
    ($($t:ty),*) => {$(
        impl Counter for $t {
            fn merge(&mut self, other: &Self, rule: Merge) {
                match rule {
                    Merge::Sum => *self += *other,
                    Merge::Max => *self = (*self).max(*other),
                }
            }
            fn set(&mut self, n: u64) {
                *self = <$t>::try_from(n).expect("counter value fits its type");
            }
            fn write_json(&self, key: &str, out: &mut String) {
                let _ = write!(out, "\"{key}\": {self}");
            }
        }
    )*};
}

int_counter!(u32, u64, usize);

impl Counter for Duration {
    fn merge(&mut self, other: &Self, rule: Merge) {
        match rule {
            Merge::Sum => *self += *other,
            Merge::Max => *self = (*self).max(*other),
        }
    }
    fn set(&mut self, n: u64) {
        *self = Duration::from_micros(n);
    }
    fn write_json(&self, key: &str, out: &mut String) {
        let _ = write!(out, "\"{key}_s\": {:.6}", self.as_secs_f64());
    }
}

/// Field access to a struct generated by [`solver_stats!`](crate::solver_stats).
pub trait Stats {
    /// Calls `f` with every field's name, merge rule and value, in
    /// declaration order.
    fn visit(&self, f: &mut dyn FnMut(&'static str, Merge, &dyn Counter));
    /// Like [`Stats::visit`], with mutable values.
    fn visit_mut(&mut self, f: &mut dyn FnMut(&'static str, Merge, &mut dyn Counter));

    /// Every field as one single-line JSON object, in declaration order.
    fn to_json(&self) -> String {
        let mut out = String::from("{ ");
        let mut first = true;
        self.visit(&mut |name, _, c| {
            if !first {
                out.push_str(", ");
            }
            first = false;
            c.write_json(name, &mut out);
        });
        out.push_str(" }");
        out
    }
}

/// Declares a stats struct holding every solver counter, after the
/// struct's own leading fields (written `name: Type = rule,` with a doc
/// comment, like the list below).
///
/// ```
/// use std::time::Duration;
/// use hk_smt::Stats;
///
/// hk_smt::solver_stats! {
///     /// Counters of one job.
///     pub struct JobStats {
///         /// Time spent before solving.
///         setup_time: Duration = sum,
///     }
/// }
///
/// let mut job = JobStats::default();
/// let call = hk_smt::SolverStats { checks: 1, conflicts: 7, ..Default::default() };
/// job.absorb(&call);
/// job.absorb(&call);
/// assert_eq!((job.checks, job.conflicts), (2, 14));
/// assert!(job.to_json().starts_with("{ \"setup_time_s\": 0.000000, \"checks\": 2,"));
/// ```
#[macro_export]
macro_rules! solver_stats {
    (@rule sum) => { $crate::stats::Merge::Sum };
    (@rule max) => { $crate::stats::Merge::Max };
    (
        @define [$($attr:tt)*] $name:ident
        [$($(#[doc = $edoc:literal])* $efield:ident: $ety:ty = $erule:ident),* $(,)?]
        $($(#[doc = $doc:literal])* $field:ident: $ty:ty = $rule:ident),* $(,)?
    ) => {
        $($attr)*
        #[derive(Debug, Clone, Copy, Default, PartialEq)]
        pub struct $name {
            $($(#[doc = $edoc])* pub $efield: $ety,)*
            $($(#[doc = $doc])* pub $field: $ty,)*
        }

        impl $name {
            /// Folds `other` in, each field by its merge rule.
            pub fn merge(&mut self, other: &Self) {
                $($crate::stats::Counter::merge(
                    &mut self.$efield, &other.$efield, $crate::solver_stats!(@rule $erule));)*
                $($crate::stats::Counter::merge(
                    &mut self.$field, &other.$field, $crate::solver_stats!(@rule $rule));)*
            }

            /// Folds one `check` call's `SolverStats` delta in, each
            /// solver counter by its merge rule.
            pub fn absorb(&mut self, stats: &$crate::SolverStats) {
                $($crate::stats::Counter::merge(
                    &mut self.$field, &stats.$field, $crate::solver_stats!(@rule $rule));)*
            }
        }

        impl $crate::stats::Stats for $name {
            fn visit(
                &self,
                f: &mut dyn FnMut(&'static str, $crate::stats::Merge, &dyn $crate::stats::Counter),
            ) {
                $(f(stringify!($efield), $crate::solver_stats!(@rule $erule), &self.$efield);)*
                $(f(stringify!($field), $crate::solver_stats!(@rule $rule), &self.$field);)*
            }

            fn visit_mut(
                &mut self,
                f: &mut dyn FnMut(&'static str, $crate::stats::Merge, &mut dyn $crate::stats::Counter),
            ) {
                $(f(stringify!($efield), $crate::solver_stats!(@rule $erule), &mut self.$efield);)*
                $(f(stringify!($field), $crate::solver_stats!(@rule $rule), &mut self.$field);)*
            }
        }
    };
    (
        $(#[$attr:meta])*
        pub struct $name:ident { $($extra:tt)* }
    ) => {
        $crate::solver_stats! {
            @define [$(#[$attr])*] $name [$($extra)*]
            /// `check` calls (1 per call).
            checks: u64 = sum,
            /// Active assertions at the time of the call.
            assertions: usize = max,
            /// Congruence constraints added by Ackermann reduction.
            ackermann_constraints: usize = sum,
            /// CNF variables known after the call.
            cnf_vars: u32 = max,
            /// CNF clauses handed to a SAT core (in incremental mode, only
            /// the newly encoded delta).
            cnf_clauses: usize = sum,
            /// Encoding (Ackermann reduction + bit-blasting + clause loading).
            encode_time: ::std::time::Duration = sum,
            /// Ackermann reduction share of `encode_time`.
            ack_time: ::std::time::Duration = sum,
            /// Bit-blasting share of `encode_time`.
            bitblast_time: ::std::time::Duration = sum,
            /// CDCL search.
            solve_time: ::std::time::Duration = sum,
            /// Queries answered from the query cache (0 or 1 per call).
            cache_hits: u64 = sum,
            /// Queries that missed the query cache (0 or 1 per call).
            cache_misses: u64 = sum,
            /// SAT conflicts.
            conflicts: u64 = sum,
            /// SAT decisions.
            decisions: u64 = sum,
            /// Literals propagated.
            propagations: u64 = sum,
            /// SAT restarts (Luby schedule).
            restarts: u64 = sum,
            /// Learnt-database reductions.
            db_reductions: u64 = sum,
            /// Learnt clauses deleted by reductions.
            learnts_removed: u64 = sum,
            /// Clauses reclaimed by root-level GC, scope pops included
            /// (GC between calls counts toward the next call).
            scope_gc_clauses: u64 = sum,
            /// Unit facts learnt by failed-literal probing.
            probe_units: u64 = sum,
            /// Clauses removed by inprocessing subsumption.
            subsumed: u64 = sum,
            /// Clauses strengthened by self-subsuming resolution.
            strengthened: u64 = sum,
            /// Budget escalations (0 or 1 per call: one retry with 4x
            /// conflicts).
            escalations: u64 = sum,
            /// Unsat answers (0 or 1 per call).
            unsat_queries: u64 = sum,
            /// Unsat answers certified by the independent checker (a
            /// trivially-false assertion set counts as vacuously certified).
            certified_unsat: u64 = sum,
            /// Proof-checker runs (one per certified Unsat that reached
            /// the SAT core).
            proofs_checked: u64 = sum,
            /// DRAT steps (inputs + lemmas + deletions) emitted with proof
            /// logging on.
            proof_steps: u64 = sum,
            /// Bytes of binary-DRAT proof emitted.
            proof_bytes: u64 = sum,
            /// Lemmas the checker parsed for the first time in this call
            /// (an incremental session parses each lemma once).
            proof_lemmas: u64 = sum,
            /// Lemmas the checker RUP-verified in this call: the trimmed
            /// core, minus the lemmas an earlier call of the same session
            /// already verified.
            proof_core_steps: u64 = sum,
            /// Time inside the independent proof checker.
            proof_check_time: ::std::time::Duration = sum,
        }
    };
}

solver_stats! {
    /// Pipeline counters of [`crate::Solver`]. `Solver::stats` is the
    /// per-call **delta** of the last `check`: every field counts only
    /// that call's work, so folding the deltas of a long-lived
    /// incremental solver never double-counts. `Solver::totals` is the
    /// deltas merged over the solver's lifetime.
    pub struct SolverStats {}
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stats value with a distinct nonzero value in every field, set
    /// through the generated visitor: field `i` holds `i + 1`, or twice
    /// that where `double` says so.
    fn numbered(double: impl Fn(Merge) -> bool) -> SolverStats {
        let mut s = SolverStats::default();
        let mut n = 0;
        s.visit_mut(&mut |_, rule, c| {
            n += 1;
            c.set(if double(rule) { 2 * n } else { n });
        });
        s
    }

    #[test]
    fn merge_follows_each_fields_rule() {
        let one = numbered(|_| false);
        let mut merged = SolverStats::default();
        merged.merge(&one);
        merged.merge(&one);
        assert_eq!(merged, numbered(|rule| rule == Merge::Sum));
        let mut absorbed = SolverStats::default();
        absorbed.absorb(&one);
        absorbed.absorb(&one);
        assert_eq!(absorbed, merged);
    }

    #[test]
    fn writer_emits_every_field_once() {
        let s = numbered(|_| false);
        let json = s.to_json();
        let mut names = Vec::new();
        s.visit(&mut |name, _, _| names.push(name));
        assert!(names.len() > 25, "{names:?}");
        for name in &names {
            let keys = [format!("\"{name}\":"), format!("\"{name}_s\":")];
            let hits: usize = keys.iter().map(|k| json.matches(k.as_str()).count()).sum();
            assert_eq!(hits, 1, "{name} in {json}");
        }
        // The keys are the fields, and nothing else: one per field.
        assert_eq!(json.matches("\":").count(), names.len());
    }
}
