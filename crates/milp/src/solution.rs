//! Solver results.

use crate::expr::VarId;

/// Outcome of a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Status {
    /// An optimal (within tolerances) solution was found.
    Optimal,
    /// The problem has no feasible solution.
    Infeasible,
    /// The objective is unbounded in the optimization direction.
    Unbounded,
}

/// Declares [`SolverCounters`] from one table: per counter its docs, field
/// name, wire name and how values combine. Adding or removing a counter is one line here plus the
/// place in the solver that counts it.
///
/// Combination rules — across the attempts of one mode's round sweep
/// ([`SolverCounters::add_attempt`]) and across the modes of a system
/// ([`SolverCounters::add_mode`]):
///
/// * `summed` — added up in both;
/// * `of_last_attempt` — describes the shape of one model, so the last
///   attempt's value stands for the mode; added up across modes;
/// * `widest` — as `of_last_attempt`, but the largest value across modes.
macro_rules! solver_counters {
    ($( $(#[$doc:meta])* $field:ident: $wire:literal, $rule:ident; )*) => {
        /// The work counters of a solve — one type from the branch-and-bound
        /// loop through [`Solution`] to the synthesis statistics, the wire and
        /// the bench reports.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct SolverCounters {
            $( $(#[$doc])* pub $field: usize, )*
        }

        impl SolverCounters {
            /// The wire name of every counter, in declaration order.
            pub const FIELDS: [&'static str; [$($wire),*].len()] = [$($wire),*];

            /// The position in [`SolverCounters::FIELDS`] of the counter
            /// with wire name `name`.
            pub fn field_index(name: &str) -> Option<usize> {
                #[allow(non_camel_case_types)]
                enum Field { $( $field, )* }
                match name {
                    $( $wire => Some(Field::$field as usize), )*
                    _ => None,
                }
            }

            /// `(wire name, value)` of every counter, in declaration order.
            pub fn fields(&self) -> [(&'static str, usize); [$($wire),*].len()] {
                [$( ($wire, self.$field) ),*]
            }

            /// The dual of [`SolverCounters::fields`]: pulls every counter
            /// through `get(wire name)`.
            ///
            /// # Errors
            ///
            /// The first error `get` returns.
            pub fn from_fields<E>(
                mut get: impl FnMut(&'static str) -> Result<usize, E>,
            ) -> Result<Self, E> {
                Ok(SolverCounters { $( $field: get($wire)?, )* })
            }

            /// Folds the counters of one more solve of the same mode in.
            pub fn add_attempt(&mut self, attempt: &SolverCounters) {
                $( solver_counters!(@attempt $rule, self.$field, attempt.$field); )*
            }

            /// Folds the counters of one more mode of the same system in.
            pub fn add_mode(&mut self, mode: &SolverCounters) {
                $( solver_counters!(@mode $rule, self.$field, mode.$field); )*
            }
        }
    };
    (@attempt summed, $total:expr, $value:expr) => { $total += $value };
    (@attempt $shape:ident, $total:expr, $value:expr) => { $total = $value };
    (@mode widest, $total:expr, $value:expr) => { $total = $total.max($value) };
    (@mode $sum:ident, $total:expr, $value:expr) => { $total += $value };
}

solver_counters! {
    /// Branch-and-bound nodes explored (0 for pure LP solves).
    nodes_explored: "milp_nodes", summed;
    /// Simplex pivots across all LP solves.
    simplex_iterations: "simplex_iterations", summed;
    /// Constraint rows removed by the LP presolve (0 when presolve is off).
    presolve_rows_removed: "presolve_rows_removed", of_last_attempt;
    /// Structural columns eliminated by the LP presolve (0 when presolve is
    /// off).
    presolve_cols_removed: "presolve_cols_removed", of_last_attempt;
    /// Devex reference-framework resets across all LP solves.
    devex_resets: "devex_resets", summed;
    /// Partial-pricing segment size of the root LP solve (columns scanned per
    /// pricing chunk).
    candidate_list_size: "candidate_list_size", widest;
    /// Cutting planes accepted into the root LP across all separation rounds
    /// (0 when [`crate::SolveParams::cuts`] is off or the root is integral).
    cuts_added: "cuts_added", summed;
    /// Root separation rounds that added at least one cut.
    cut_rounds: "cut_rounds", summed;
    /// Branching decisions taken from pseudocost averages alone (0 when
    /// [`crate::SolveParams::pseudocost`] is off).
    pseudocost_branchings: "pseudocost_branchings", summed;
    /// Always 0: the solver no longer runs strong-branching probes. Kept on
    /// the wire only because the repo benchmark
    /// (`benchmark/src/service_lap.rs`) reads it; it goes when that
    /// benchmark next changes.
    strong_branch_probes: "strong_branch_probes", summed;
    /// Always 0: the solver no longer runs a feasibility pump. Kept for the
    /// same reason as `strong_branch_probes`.
    pump_incumbents: "pump_incumbents", summed;
    /// From-scratch LU factorizations of a basis, across the LP solves that
    /// returned and the Gomory separator. A node LP that restores the factor
    /// state its parent's LP ended on (see [`crate::branch_bound`]) counts
    /// none, so this is the counter that moves if the tree's memo stops
    /// being hit; a dual-unbounded verdict certified by its Farkas ray
    /// counts none either.
    lu_factorizations: "lu_factorizations", summed;
}

/// Result of solving a [`crate::Model`]. The work counters are reached
/// through it directly (`solution.nodes_explored`).
#[derive(Debug, Clone)]
pub struct Solution {
    /// Solve outcome.
    pub status: Status,
    /// Objective value in the user's optimization sense.
    ///
    /// `f64::INFINITY` for infeasible minimization problems (and symmetric
    /// conventions for the other non-optimal outcomes).
    pub objective: f64,
    /// What the solve cost.
    pub counters: SolverCounters,
    values: Vec<f64>,
}

impl std::ops::Deref for Solution {
    type Target = SolverCounters;

    fn deref(&self) -> &SolverCounters {
        &self.counters
    }
}

impl Solution {
    /// Builds an optimal solution record.
    pub(crate) fn optimal(objective: f64, values: Vec<f64>, counters: SolverCounters) -> Self {
        Solution {
            status: Status::Optimal,
            objective,
            counters,
            values,
        }
    }

    /// Builds a record of an outcome without values: infeasible (objective
    /// `+∞`) or unbounded (`-∞`).
    pub(crate) fn without_values(status: Status, counters: SolverCounters) -> Self {
        Solution {
            status,
            objective: match status {
                Status::Unbounded => f64::NEG_INFINITY,
                Status::Optimal | Status::Infeasible => f64::INFINITY,
            },
            counters,
            values: Vec::new(),
        }
    }

    /// Returns `true` if the solve reached an optimal solution.
    pub fn is_optimal(&self) -> bool {
        self.status == Status::Optimal
    }

    /// Returns the value of `var` in the solution.
    ///
    /// # Panics
    ///
    /// Panics if the solution is not optimal (no values are stored) or if the
    /// variable does not belong to the solved model.
    pub fn value(&self, var: VarId) -> f64 {
        self.values[var.index()]
    }

    /// Returns the value of `var` rounded to the nearest integer.
    ///
    /// Useful for reading integer/binary variables without accumulating the
    /// solver's numerical noise.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Solution::value`].
    pub fn int_value(&self, var: VarId) -> i64 {
        self.values[var.index()].round() as i64
    }

    /// Returns the full assignment indexed by [`VarId::index`].
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimal_accessors() {
        let counters = SolverCounters {
            nodes_explored: 4,
            simplex_iterations: 17,
            ..SolverCounters::default()
        };
        let s = Solution::optimal(3.5, vec![1.0, 2.49], counters);
        assert!(s.is_optimal());
        assert_eq!(s.value(VarId::from_index_for_test(0)), 1.0);
        assert_eq!(s.int_value(VarId::from_index_for_test(1)), 2);
        assert_eq!(s.values(), &[1.0, 2.49]);
        assert_eq!(s.nodes_explored, 4);
        assert_eq!(s.simplex_iterations, 17);
    }

    #[test]
    fn counters_list_their_wire_names_and_rebuild_from_them() {
        let mut counters = SolverCounters::default();
        let names: Vec<&str> = counters.fields().iter().map(|(name, _)| *name).collect();
        assert_eq!(names.len(), 12);
        assert_eq!(
            names[0], "milp_nodes",
            "the wire name is not the field name"
        );
        counters.nodes_explored = 3;
        counters.pump_incumbents = 1;
        let fields = counters.fields();
        let back = SolverCounters::from_fields(|name| {
            fields
                .iter()
                .find(|(field, _)| *field == name)
                .map(|(_, value)| *value)
                .ok_or(name)
        });
        assert_eq!(back, Ok(counters));
        assert_eq!(SolverCounters::FIELDS, names.as_slice());
    }

    #[test]
    fn counters_combine_by_their_declared_rule() {
        let attempt = |nodes, rows, width| SolverCounters {
            nodes_explored: nodes,
            presolve_rows_removed: rows,
            candidate_list_size: width,
            ..SolverCounters::default()
        };
        let mut mode = SolverCounters::default();
        mode.add_attempt(&attempt(2, 10, 64));
        mode.add_attempt(&attempt(5, 7, 32));
        assert_eq!(mode, attempt(7, 7, 32), "work adds up, shape is the last");
        let mut system = SolverCounters::default();
        system.add_mode(&mode);
        system.add_mode(&attempt(1, 4, 48));
        assert_eq!(system, attempt(8, 11, 48), "sums, and the widest list");
    }

    #[test]
    fn infeasible_has_infinite_objective() {
        let s = Solution::without_values(Status::Infeasible, SolverCounters::default());
        assert!(!s.is_optimal());
        assert!(s.objective.is_infinite() && s.objective > 0.0);
        assert!(s.values().is_empty());
    }

    #[test]
    fn unbounded_has_negative_infinite_objective() {
        let s = Solution::without_values(Status::Unbounded, SolverCounters::default());
        assert_eq!(s.status, Status::Unbounded);
        assert!(s.objective.is_infinite() && s.objective < 0.0);
    }
}
