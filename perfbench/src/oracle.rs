//! The answer oracle: the paper's views evaluated directly over a
//! generated [`Firm`], in plain Rust.
//!
//! Nothing here goes through the system under test (no Prolog engine,
//! metaevaluator, optimizer, SQL generator or relational query system),
//! so a wrong answer anywhere in that pipeline shows up as a mismatch.
//!
//! The views, as the benchmark consults them:
//!
//! ```text
//! works_dir_for(X, Y) :- empl(_, X, _, D), dept(D, _, M), empl(M, Y, _, _).
//! same_manager(X, Y)  :- works_dir_for(X, M), works_dir_for(Y, M), neq(X, Y).
//! works_for(L, H)     :- works_dir_for(L, H).
//! works_for(L, H)     :- works_dir_for(L, M), works_for(M, H).
//! manager(X, Y)       :- empl(X, _, _, D), dept(D, _, Y).
//! ```
//!
//! `works_for` is recursive; the front end unfolds it to a fixed depth,
//! so its answers are the chains of 1 to `depth` `works_dir_for` steps.

use coupling::workload::Firm;
use std::collections::{BTreeSet, HashMap};

/// Direct evaluator of the views over one firm's rows.
pub struct Oracle {
    enos: Vec<i64>,
    names: Vec<String>,
    salaries: Vec<i64>,
    /// `boss[i]`: index of the manager of employee `i`'s department.
    boss: Vec<usize>,
    index_of: HashMap<i64, usize>,
}

impl Oracle {
    pub fn new(firm: &Firm) -> Oracle {
        let index_of: HashMap<i64, usize> = firm
            .employees
            .iter()
            .enumerate()
            .map(|(i, e)| (e.eno, i))
            .collect();
        let mgr_of_dept: HashMap<i64, i64> =
            firm.departments.iter().map(|d| (d.dno, d.mgr)).collect();
        let boss = firm
            .employees
            .iter()
            .map(|e| index_of[&mgr_of_dept[&e.dno]])
            .collect();
        Oracle {
            enos: firm.employees.iter().map(|e| e.eno).collect(),
            names: firm.employees.iter().map(|e| e.nam.clone()).collect(),
            salaries: firm.employees.iter().map(|e| e.sal).collect(),
            boss,
            index_of,
        }
    }

    fn idx(&self, eno: i64) -> usize {
        self.index_of[&eno]
    }

    fn names_where(&self, keep: impl Fn(usize) -> bool) -> BTreeSet<String> {
        (0..self.names.len())
            .filter(|&i| keep(i))
            .map(|i| self.names[i].clone())
            .collect()
    }

    /// `works_dir_for(t_X, <boss>)`.
    pub fn subordinates(&self, boss: i64) -> BTreeSet<String> {
        let b = self.idx(boss);
        self.names_where(|i| self.boss[i] == b)
    }

    /// `works_dir_for(<eno>, t_Y)`.
    pub fn boss_of(&self, eno: i64) -> BTreeSet<String> {
        BTreeSet::from([self.names[self.boss[self.idx(eno)]].clone()])
    }

    /// `same_manager(t_X, <eno>)`.
    pub fn same_manager(&self, eno: i64) -> BTreeSet<String> {
        let me = self.idx(eno);
        let m = self.boss[me];
        self.names_where(|i| i != me && self.boss[i] == m)
    }

    /// `works_for(t_X, <high>)` unfolded to chains of 1..=`depth` steps.
    pub fn works_for(&self, high: i64, depth: usize) -> BTreeSet<String> {
        let h = self.idx(high);
        self.names_where(|i| {
            let mut at = i;
            (0..depth).any(|_| {
                at = self.boss[at];
                at == h
            })
        })
    }

    /// `manager(t_X, <mgr eno>)`: employee numbers, as text.
    pub fn managed_by(&self, mgr: i64) -> BTreeSet<String> {
        let m = self.idx(mgr);
        (0..self.names.len())
            .filter(|&i| self.boss[i] == m)
            .map(|i| self.enos[i].to_string())
            .collect()
    }

    /// `works_dir_for(t_X, <boss>), empl(_, t_X, S, _), less(S, <cap>)`.
    pub fn subordinates_paid_below(&self, boss: i64, cap: i64) -> BTreeSet<String> {
        let b = self.idx(boss);
        self.names_where(|i| self.boss[i] == b && self.salaries[i] < cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coupling::workload::{Department, Employee, FirmParams};

    /// The paper's five-person firm: control manages hq (dept 10);
    /// smiley works at hq and manages the field unit (dept 20), where
    /// jones, miller and leamas work.
    fn spy_firm() -> Firm {
        let employees = [
            (1, "control", 80_000, 10),
            (2, "smiley", 60_000, 10),
            (3, "jones", 30_000, 20),
            (4, "miller", 25_000, 20),
            (5, "leamas", 35_000, 20),
        ]
        .into_iter()
        .map(|(eno, nam, sal, dno)| Employee {
            eno,
            nam: nam.to_owned(),
            sal,
            dno,
            level: 0,
        })
        .collect();
        let departments = [(10, "hq", 1), (20, "field", 2)]
            .into_iter()
            .map(|(dno, fct, mgr)| Department {
                dno,
                fct: fct.to_owned(),
                mgr,
            })
            .collect();
        Firm {
            params: FirmParams::default(),
            employees,
            departments,
        }
    }

    fn set(names: &[&str]) -> BTreeSet<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn reproduces_the_papers_five_person_firm() {
        let oracle = Oracle::new(&spy_firm());
        // works_dir_for(t_X, smiley)
        assert_eq!(oracle.subordinates(2), set(&["jones", "leamas", "miller"]));
        // same_manager(t_X, jones)
        assert_eq!(oracle.same_manager(3), set(&["leamas", "miller"]));
        assert_eq!(oracle.boss_of(3), set(&["smiley"]));
        // control runs hq, which holds control and smiley.
        assert_eq!(oracle.works_for(1, 1), set(&["control", "smiley"]));
        assert_eq!(
            oracle.works_for(1, 2),
            set(&["control", "jones", "leamas", "miller", "smiley"])
        );
        assert_eq!(oracle.managed_by(2), set(&["3", "4", "5"]));
        assert_eq!(
            oracle.subordinates_paid_below(2, 31_000),
            set(&["jones", "miller"])
        );
    }
}
