//! The paper's goals, generated from a seed, with the oracle's answer
//! for each.

use crate::oracle::Oracle;
use crate::util::Rng;
use coupling::workload::{Employee, Firm};
use coupling::Answer;
use rqs::Datum;
use std::collections::BTreeSet;

/// The views every goal workload consults (`works_dir_for` is defined
/// once, inside `SAME_MANAGER`).
pub fn views() -> [&'static str; 3] {
    [
        metaeval::views::SAME_MANAGER,
        "works_for(L, H) :- works_dir_for(L, H).
         works_for(L, H) :- works_dir_for(L, M), works_for(M, H).",
        metaeval::views::MANAGER,
    ]
}

/// One goal: its source text and the answers the oracle expects.
#[derive(Clone)]
pub struct Goal {
    pub kind: &'static str,
    pub text: String,
    pub expected: BTreeSet<String>,
}

/// Goal kinds; the last one is the conjunction §6 proves empty.
pub const KINDS: usize = 7;

/// A round of `len` goals with every kind in equal share (up to
/// rounding), shuffled. `kinds` leaves out the last kinds.
///
/// Within a kind, the employees asked about are spread evenly over the
/// hierarchy's levels (systematic sampling from a seeded offset), so a
/// seed changes which employees are asked about but not how deep in the
/// hierarchy they sit, which is what a goal's cost depends on.
pub fn round(
    rng: &mut Rng,
    firm: &Firm,
    oracle: &Oracle,
    depth: usize,
    len: usize,
    kinds: usize,
) -> Vec<Goal> {
    let anyone = by_level(firm.employees.iter().collect());
    let bosses = by_level(
        firm.departments
            .iter()
            .map(|d| {
                let e = &firm.employees[(d.mgr - 1) as usize];
                assert_eq!(e.eno, d.mgr, "the generator numbers employees from 1");
                e
            })
            .collect(),
    );
    let offsets: Vec<(usize, usize)> = (0..kinds)
        .map(|_| (rng.below(anyone.len()), rng.below(bosses.len())))
        .collect();
    let mut goals: Vec<Goal> = (0..len)
        .map(|i| {
            let (kind, j) = (i % kinds, i / kinds);
            let per_kind = (len - kind).div_ceil(kinds);
            let (a, b) = offsets[kind];
            let anyone = spread(&anyone, a, j, per_kind);
            let manager = spread(&bosses, b, j, per_kind);
            draw(rng, oracle, depth, kind, anyone, manager)
        })
        .collect();
    for i in (1..goals.len()).rev() {
        goals.swap(i, rng.below(i + 1));
    }
    goals
}

fn by_level(mut people: Vec<&Employee>) -> Vec<&Employee> {
    people.sort_by_key(|e| (e.level, e.eno));
    people
}

/// The `j`-th of `n` picks spread evenly over `people`, from `offset`.
fn spread<'a>(people: &[&'a Employee], offset: usize, j: usize, n: usize) -> &'a Employee {
    people[(offset + j * people.len() / n) % people.len()]
}

/// One goal of the given kind. Goals that ask for subordinates start
/// from a department's manager, so most of them have answers; goals that
/// ask upward start from any employee.
fn draw(
    rng: &mut Rng,
    oracle: &Oracle,
    depth: usize,
    kind: usize,
    anyone: &Employee,
    manager: &Employee,
) -> Goal {
    let manager_eno = manager.eno;
    let (me, boss) = (&anyone.nam, &manager.nam);
    let (kind, text, expected) = match kind {
        0 => (
            "works_dir_for_down",
            format!("works_dir_for(t_X, {boss})"),
            oracle.subordinates(manager_eno),
        ),
        1 => (
            "works_dir_for_up",
            format!("works_dir_for({me}, t_Y)"),
            oracle.boss_of(anyone.eno),
        ),
        2 => (
            "same_manager",
            format!("same_manager(t_X, {me})"),
            oracle.same_manager(anyone.eno),
        ),
        3 => (
            "works_for",
            format!("works_for(t_X, {boss})"),
            oracle.works_for(manager_eno, depth),
        ),
        4 => (
            "manager",
            format!("manager(t_X, {manager_eno})"),
            oracle.managed_by(manager_eno),
        ),
        5 => {
            let cap = rng.in_range(20, 80) * 1_000;
            (
                "paid_below",
                format!("works_dir_for(t_X, {boss}), empl(E, t_X, S, D), less(S, {cap})"),
                oracle.subordinates_paid_below(manager_eno, cap),
            )
        }
        _ => {
            // Outside the CHECK (sal BETWEEN 10000 AND 90000) bound, so
            // §6 proves the conjunction empty without asking the DBMS.
            let test = if rng.below(2) == 0 {
                format!("less(S, {})", rng.in_range(1, 10) * 1_000)
            } else {
                format!("greater(S, {})", rng.in_range(90, 99) * 1_000)
            };
            (
                "proved_empty",
                format!("works_dir_for(t_X, {boss}), empl(E, t_X, S, D), {test}"),
                BTreeSet::new(),
            )
        }
    };
    Goal {
        kind,
        text,
        expected,
    }
}

/// The single target value of each answer, as text (names unquoted,
/// numbers in decimal).
pub fn answer_set(answers: &[Answer]) -> BTreeSet<String> {
    answers
        .iter()
        .flat_map(|a| a.values())
        .map(|d| match d {
            Datum::Int(i) => i.to_string(),
            Datum::Text(s) => s.to_string(),
        })
        .collect()
}
