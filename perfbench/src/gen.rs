//! Seeded workload inputs: fact files and request streams.
//!
//! Everything here is a pure function of the seed (and, for streams, the
//! number of rounds), so the same seed always yields byte-identical facts
//! and an identical request stream.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rc_formula::{Schema, Value};
use rc_safety::corpus::{corpus, formula_of};
use rc_safety::pipeline::{classify, SafetyClass};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Rows per relation in a paper-scale database.
pub const PAPER_ROWS: usize = 6;

/// One corpus formula with its own seeded database.
#[derive(Clone, Debug)]
pub struct PaperCase {
    /// Corpus identifier.
    pub id: &'static str,
    /// Query text.
    pub text: &'static str,
    /// Does the classifier accept it (served by the ordinary pipeline)?
    /// Rejected formulas are served through the safe pair.
    pub recognized: bool,
    /// The database, as fact text.
    pub facts: String,
}

/// The `paper_cold` inputs: every corpus formula over its own tables.
pub fn paper_cases(seed: u64) -> Vec<PaperCase> {
    let mut rng = StdRng::seed_from_u64(seed);
    corpus()
        .into_iter()
        .map(|entry| {
            let f = formula_of(&entry);
            let schema = Schema::infer(&f).expect("corpus formulas have consistent arities");
            let mut domain: Vec<Value> = (1..=4).map(Value::int).collect();
            for c in f.constants() {
                if !domain.contains(&c) {
                    domain.push(c);
                }
            }
            let mut facts = String::new();
            for (pred, arity) in schema.predicates() {
                for _ in 0..PAPER_ROWS {
                    let row: Vec<String> = (0..arity)
                        .map(|_| domain.choose(&mut rng).expect("nonempty").to_string())
                        .collect();
                    let _ = writeln!(facts, "{pred}({})", row.join(", "));
                }
            }
            PaperCase {
                id: entry.id,
                text: entry.text,
                recognized: classify(&f) != SafetyClass::NotRecognized,
                facts,
            }
        })
        .collect()
}

/// The `paper_cold` request stream: `rounds` rounds, each visiting every
/// case once in a seeded order. Items are indexes into [`paper_cases`].
pub fn paper_stream(seed: u64, cases: usize, rounds: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x57ee_a300);
    let mut out = Vec::with_capacity(cases * rounds);
    for _ in 0..rounds {
        let mut order: Vec<usize> = (0..cases).collect();
        order.shuffle(&mut rng);
        out.extend(order);
    }
    out
}

/// A table under construction: name, arity and row set (ordered, so fact
/// text is canonical).
type Tables = BTreeMap<&'static str, BTreeSet<Vec<i64>>>;

fn fill(rng: &mut StdRng, rows: usize, ranges: &[i64]) -> BTreeSet<Vec<i64>> {
    let mut out = BTreeSet::new();
    while out.len() < rows {
        out.insert(ranges.iter().map(|&r| rng.gen_range(0..r)).collect());
    }
    out
}

fn facts_of(tables: &Tables) -> String {
    let mut facts = String::new();
    for (name, rows) in tables {
        for row in rows {
            let cols: Vec<String> = row.iter().map(i64::to_string).collect();
            let _ = writeln!(facts, "{name}({})", cols.join(", "));
        }
    }
    facts
}

/// Largest table of `adhoc_join`: past `MIN_PARTITION_ROWS` × 4 rows, so
/// the partition-parallel kernels run on any machine with two or more
/// cores.
pub const ADHOC_E_ROWS: usize = 20_000;

/// Domain sizes of the `adhoc_join` columns. The constant columns (`x`,
/// `z`, `w`) bound the number of distinct texts per template.
const ADHOC_X: i64 = 10_000;
const ADHOC_Y: i64 = 2_000;
const ADHOC_Z: i64 = 4_000;
const ADHOC_W: i64 = 4_000;

/// The `adhoc_join` query templates: 2- to 4-way joins with negation and
/// existential quantifiers; `{c}` is a seeded constant, and the domain of
/// its column follows. Their costs are spread so that the median request
/// falls in the middle of one template's requests (the third cheapest),
/// not on a boundary between two.
pub const ADHOC_TEMPLATES: [(&str, i64); 5] = [
    ("F(y, z) & H(z, {c}) & !K(z)", ADHOC_W),
    ("exists y. (E({c}, y) & F(y, z) & !K(z))", ADHOC_X),
    ("E(x, y) & F(y, {c}) & !G(x)", ADHOC_Z),
    (
        "exists y. exists z. (E(x, y) & F(y, z) & H(z, {c}))",
        ADHOC_W,
    ),
    (
        "exists w. (G(x) & E(x, y) & F(y, {c}) & H({c}, w) & !K(w))",
        ADHOC_Z,
    ),
];

/// The `adhoc_join` database as fact text.
pub fn adhoc_facts(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = Tables::new();
    t.insert("E", fill(&mut rng, ADHOC_E_ROWS, &[ADHOC_X, ADHOC_Y]));
    t.insert("F", fill(&mut rng, 8_000, &[ADHOC_Y, ADHOC_Z]));
    t.insert("G", fill(&mut rng, 3_000, &[ADHOC_X]));
    t.insert("H", fill(&mut rng, 8_000, &[ADHOC_Z, ADHOC_W]));
    t.insert("K", fill(&mut rng, 1_000, &[ADHOC_W]));
    facts_of(&t)
}

/// The `adhoc_join` request stream: `rounds` rounds of every template
/// once, in a seeded order. Each template draws its constants from a
/// seeded permutation of its column's domain, so no text repeats.
///
/// # Panics
///
/// When `rounds` exceeds a template's domain (4 000).
pub fn adhoc_stream(seed: u64, rounds: usize) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xad0c_1017);
    let mut constants: Vec<std::vec::IntoIter<i64>> = ADHOC_TEMPLATES
        .iter()
        .map(|&(_, domain)| {
            assert!(
                rounds as i64 <= domain,
                "adhoc_join has {domain} distinct texts per template, not {rounds}"
            );
            let mut all: Vec<i64> = (0..domain).collect();
            all.shuffle(&mut rng);
            all.into_iter()
        })
        .collect();
    let mut out = Vec::with_capacity(rounds * ADHOC_TEMPLATES.len());
    for _ in 0..rounds {
        let mut order: Vec<usize> = (0..ADHOC_TEMPLATES.len()).collect();
        order.shuffle(&mut rng);
        for t in order {
            let c = constants[t].next().expect("checked against the domain");
            out.push(ADHOC_TEMPLATES[t].0.replace("{c}", &c.to_string()));
        }
    }
    out
}

/// The `trickle_warm` standing queries, from a few hundred rows to
/// thousands. Their answer sizes are spread wide apart so that the median
/// and the 90th percentile of a round's reads each fall in the middle of
/// one query's reads, not on a boundary between two.
pub const TRICKLE_QUERIES: [&str; 5] = [
    "exists y. (B(y, z) & D(z) & !C(y))",
    "A(x, y) & C(y)",
    "A(x, y) & !C(y)",
    "exists y. (A(x, y) & B(y, z))",
    "A(x, y) & B(y, z)",
];

/// Reads of every standing query per `trickle_warm` round: the first is
/// refreshed by incremental maintenance, the rest are verbatim hits.
pub const TRICKLE_READS: usize = 3;

const TRICKLE_X: i64 = 1_000;
const TRICKLE_Y: i64 = 300;
const TRICKLE_Z: i64 = 1_000;

fn trickle_tables(seed: u64) -> (Tables, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = Tables::new();
    t.insert("A", fill(&mut rng, 2_000, &[TRICKLE_X, TRICKLE_Y]));
    t.insert("B", fill(&mut rng, 1_000, &[TRICKLE_Y, TRICKLE_Z]));
    t.insert("C", fill(&mut rng, 100, &[TRICKLE_Y]));
    t.insert("D", fill(&mut rng, 300, &[TRICKLE_Z]));
    (t, rng)
}

/// The `trickle_warm` database as fact text.
pub fn trickle_facts(seed: u64) -> String {
    facts_of(&trickle_tables(seed).0)
}

/// The `trickle_warm` mutation stream: one one-row mutation per round,
/// alternating an insert of an absent row with a delete of a present one,
/// so every mutation changes the database and table sizes stay level.
pub fn trickle_mutations(seed: u64, rounds: usize) -> Vec<String> {
    let (mut tables, mut rng) = trickle_tables(seed);
    let ranges: BTreeMap<&str, Vec<i64>> = [
        ("A", vec![TRICKLE_X, TRICKLE_Y]),
        ("B", vec![TRICKLE_Y, TRICKLE_Z]),
        ("C", vec![TRICKLE_Y]),
        ("D", vec![TRICKLE_Z]),
    ]
    .into_iter()
    .collect();
    let names = ["A", "B", "C", "D"];
    (0..rounds)
        .map(|round| {
            let name = *names.choose(&mut rng).expect("nonempty");
            let rows = tables.get_mut(name).expect("table exists");
            let (sign, row) = if round % 2 == 0 {
                let row = loop {
                    let row: Vec<i64> = ranges[name].iter().map(|&r| rng.gen_range(0..r)).collect();
                    if !rows.contains(&row) {
                        break row;
                    }
                };
                rows.insert(row.clone());
                ("", row)
            } else {
                let i = rng.gen_range(0..rows.len());
                let row = rows.iter().nth(i).expect("index in range").clone();
                rows.remove(&row);
                ("-", row)
            };
            let cols: Vec<String> = row.iter().map(i64::to_string).collect();
            format!("{sign}{name}({})", cols.join(", "))
        })
        .collect()
}
