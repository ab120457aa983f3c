//! The four workloads: their generated databases, their op types and
//! the seeded op sequences a single closed-loop client sends.
//!
//! Everything here is a pure function of the workload name and the seed:
//! the same seed gives the same database text and the same op sequence,
//! and [`Workload::content_hash`] identifies both.

use std::collections::VecDeque;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relviz_core::suite::SUITE;
use relviz_model::catalog::{reserves_schema, sailor_schema, sailors_sample};
use relviz_model::generate::{generate_binary_pair, generate_sailors, GenConfig};
use relviz_model::text::dump_database;
use relviz_model::{Database, Relation, Tuple, Value};
use relviz_serve::{escape, Lang};

use crate::ident::Fnv64;

/// The workloads, by the names `--workload` takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    ServeScan,
    ServeRecursive,
    ServeAdhoc,
    ShowGallery,
}

impl Name {
    pub const ALL: [Name; 4] = [
        Name::ServeScan,
        Name::ServeRecursive,
        Name::ServeAdhoc,
        Name::ShowGallery,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            Name::ServeScan => "serve_scan",
            Name::ServeRecursive => "serve_recursive",
            Name::ServeAdhoc => "serve_adhoc",
            Name::ShowGallery => "show_gallery",
        }
    }

    pub fn parse(s: &str) -> Option<Name> {
        Name::ALL.into_iter().find(|n| n.as_str() == s)
    }
}

/// What one op asks of the system.
#[derive(Debug, Clone)]
pub enum Request {
    /// A `query` frame.
    Query { lang: Lang, text: String },
    /// An `insert` frame carrying a database fragment.
    Insert { fragment: Database },
    /// A `load` frame resetting the database to the workload's base text.
    Load,
    /// One SQL query (the op's `line`) rendered in every formalism.
    Render,
}

/// One op of a workload's sequence.
#[derive(Debug, Clone)]
pub struct Op {
    /// Index into [`Workload::kinds`].
    pub kind: usize,
    /// The frame's `id` (0 for render ops, which have no frame).
    pub id: u64,
    pub request: Request,
    /// The wire frame for serve ops; the SQL text for render ops.
    pub line: String,
}

/// A generated workload instance.
pub struct Workload {
    pub name: Name,
    pub seed: u64,
    /// The generated database.
    pub base: Database,
    /// `base` in the text format `load` frames carry.
    pub db_text: Arc<str>,
    /// Op type labels, indexed by [`Op::kind`].
    pub kinds: Vec<String>,
}

/// Database name every serve op addresses.
pub const DB: &str = "default";

/// Independent RNG streams derived from the one seed (splitmix64 of the
/// seed and a stream tag), so the database and the op order do not
/// share random draws.
fn stream(seed: u64, tag: u64) -> StdRng {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

const DB_STREAM: u64 = 1;
const REACH_STREAM: u64 = 2;
const ORDER_STREAM: u64 = 2 ^ 0xFF;

/// serve_scan's database: 20 000 tuples.
const SCAN_SIZES: (usize, usize, usize) = (5_000, 1_000, 14_000);
/// serve_scan's requests: (suite query, languages).
const SCAN_QUERIES: [(&str, &[&str]); 6] = [
    ("Q1", &["sql", "trc", "datalog"]),
    ("Q2", &["sql", "trc", "datalog"]),
    ("Q3", &["sql", "trc", "datalog"]),
    ("Q4", &["sql", "trc", "datalog"]),
    ("Q6", &["sql", "trc", "datalog"]),
    ("Q8", &["sql", "trc"]),
];

/// serve_recursive's graph: edges, node domain. With 4 000 edges over
/// 8 000 nodes the graph is subcritical (mean out-degree 0.5), so the
/// closure's size is a sum over many small components and barely moves
/// between seeds.
const GRAPH: (usize, i64) = (4_000, 8_000);
const RECURSIVE_REACH_GOALS: usize = 4;
/// Ops per serve_recursive round: three tc, three sg, two bound goals.
const RECURSIVE_ROUND: usize = 8;
const TC: &str = "tc(X, Y) :- R(X, Y).\ntc(X, Z) :- tc(X, Y), R(Y, Z).";
const SG: &str = "sg(X, Y) :- R(P, X), R(P, Y).\nsg(X, Y) :- R(A, X), sg(A, B), R(B, Y).";

/// serve_adhoc's database size (total tuples) and write cadence: every
/// read template twice between writes, so a popular text can repeat
/// (and hit the plan cache) before the next write purges it.
const ADHOC_TUPLES: usize = 1_000;
const ADHOC_TEMPLATES: usize = 24;
const ADHOC_READS_PER_WRITE: usize = 2 * ADHOC_TEMPLATES;
const ADHOC_WRITES_PER_LOAD: usize = 8;
const ADHOC_INSERT_RESERVATIONS: usize = 6;

/// show_gallery's round, as query indexes (Q1 = 0): the three cheap
/// queries once, the three mid-cost ones twice, Q6 once and the costly
/// union Q3 twice, so p50 falls inside the mid-cost band and p95 inside
/// Q3's rather than where two bands meet.
const GALLERY_ROUND: [usize; 12] = [0, 6, 7, 1, 1, 3, 3, 4, 4, 5, 2, 2];

/// Languages of the read templates, in kind order.
const LANGS: [(Lang, &str); 3] = [
    (Lang::Sql, "sql"),
    (Lang::Trc, "trc"),
    (Lang::Datalog, "datalog"),
];

impl Workload {
    pub fn generate(name: Name, seed: u64) -> Workload {
        let mut rng = stream(seed, DB_STREAM);
        let db = match name {
            Name::ServeScan => {
                let (sailors, boats, reservations) = SCAN_SIZES;
                generate_sailors(&GenConfig {
                    seed: rng.gen_range(0..u64::MAX),
                    sailors,
                    boats,
                    reservations,
                })
            }
            Name::ServeRecursive => {
                generate_binary_pair(rng.gen_range(0..u64::MAX), GRAPH.0, GRAPH.1)
            }
            Name::ServeAdhoc => generate_sailors(&GenConfig {
                seed: rng.gen_range(0..u64::MAX),
                ..GenConfig::scaled(ADHOC_TUPLES)
            }),
            Name::ShowGallery => sailors_sample(),
        };
        let kinds = match name {
            Name::ServeScan => SCAN_QUERIES
                .iter()
                .flat_map(|(q, langs)| langs.iter().map(move |l| format!("{q}.{l}")))
                .collect(),
            Name::ServeRecursive => ["tc", "sg"]
                .iter()
                .map(|s| s.to_string())
                .chain((0..RECURSIVE_REACH_GOALS).map(|i| format!("reach.{i}")))
                .collect(),
            Name::ServeAdhoc => (1..=8)
                .flat_map(|q| LANGS.iter().map(move |(_, l)| format!("Q{q}.{l}")))
                .chain(["insert".to_string(), "load".to_string()])
                .collect(),
            Name::ShowGallery => (1..=8).map(|q| format!("Q{q}")).collect(),
        };
        Workload {
            name,
            seed,
            db_text: dump_database(&db).into(),
            base: db,
            kinds,
        }
    }

    /// The wire frame that loads the base database.
    pub fn load_frame(&self, id: u64) -> String {
        format!(
            "{{\"type\":\"load\",\"id\":{id},\"db\":\"{DB}\",\"text\":\"{}\"}}",
            escape(&self.db_text)
        )
    }

    /// The op sequence the measured client sends.
    pub fn ops(&self) -> OpStream<'_> {
        let reach = match self.name {
            Name::ServeRecursive => reach_sources(&self.base, &mut stream(self.seed, REACH_STREAM)),
            _ => Vec::new(),
        };
        OpStream {
            workload: self,
            rng: stream(self.seed, ORDER_STREAM),
            pending: VecDeque::new(),
            round: 0,
            next_id: 1,
            reach,
        }
    }

    /// The set-up pass: every distinct request once, at the suite's own
    /// constants (serve_adhoc, show_gallery) or exactly as the measured
    /// ops send them (serve_scan, serve_recursive).
    pub fn setup_ops(&self) -> Vec<Op> {
        let mut stream = self.ops();
        (0..self.distinct_reads())
            .map(|kind| stream.canonical(kind))
            .collect()
    }

    /// Ops per round: each round holds every op type in its designed
    /// proportion, in a seeded order.
    pub fn round_len(&self) -> usize {
        match self.name {
            Name::ServeScan => self.kinds.len(),
            Name::ServeRecursive => RECURSIVE_ROUND,
            Name::ServeAdhoc => ADHOC_READS_PER_WRITE + 1,
            Name::ShowGallery => GALLERY_ROUND.len(),
        }
    }

    /// Number of read op types (every kind but serve_adhoc's writes).
    fn distinct_reads(&self) -> usize {
        match self.name {
            Name::ServeAdhoc => ADHOC_TEMPLATES,
            _ => self.kinds.len(),
        }
    }

    /// Content hash of the generated instance: the database text plus
    /// the first `HASHED_OPS` ops of the sequence (the rest follows from
    /// the same generator state).
    pub fn content_hash(&self) -> String {
        const HASHED_OPS: usize = 1024;
        let mut h = Fnv64::new();
        h.field(self.name.as_str().as_bytes());
        h.field(self.db_text.as_bytes());
        let mut ops = self.ops();
        for _ in 0..HASHED_OPS {
            let op = ops.next_op();
            h.field(op.line.as_bytes());
        }
        h.hex()
    }
}

/// Picks serve_recursive's reachability sources: distinct nodes with an
/// out-edge, so every bound goal has a non-empty answer.
fn reach_sources(db: &Database, rng: &mut StdRng) -> Vec<i64> {
    let edges = db.relation("R").expect("the graph has an edge relation R");
    let mut sources: Vec<i64> = edges
        .iter()
        .filter_map(|t| match t.values().first() {
            Some(Value::Int(a)) => Some(*a),
            _ => None,
        })
        .collect();
    sources.sort_unstable();
    sources.dedup();
    let mut picked = Vec::with_capacity(RECURSIVE_REACH_GOALS);
    while picked.len() < RECURSIVE_REACH_GOALS {
        let s = sources[rng.gen_range(0..sources.len())];
        if !picked.contains(&s) {
            picked.push(s);
        }
    }
    picked
}

/// Constants substituted into a read template.
#[derive(Debug, Clone, Copy)]
struct Consts {
    bid: i64,
    color: &'static str,
    other_color: &'static str,
    rating: i64,
}

/// The suite's own constants (Q1's boat 102, red and green boats) with a
/// rating bound that keeps every sailor.
const CANONICAL: Consts = Consts {
    bid: 102,
    color: "red",
    other_color: "green",
    rating: 1,
};

/// Colors constants are drawn from, most popular first; `black` names no
/// boat, so some reads have empty answers.
const COLORS: [&str; 6] = ["red", "green", "blue", "white", "yellow", "black"];

/// A skewed draw from `0..n`: index `i` is picked with probability
/// falling off like a power law, so a few constants are popular and a
/// long tail is rare.
fn skewed(rng: &mut StdRng, n: usize) -> usize {
    let u: f64 = rng.gen_range(0.0..1.0);
    ((u * u * u) * n as f64) as usize
}

fn draw_consts(rng: &mut StdRng, boats: &[i64]) -> Consts {
    let color = COLORS[skewed(rng, COLORS.len())];
    let mut other_color = COLORS[skewed(rng, COLORS.len())];
    if other_color == color {
        other_color =
            COLORS[(COLORS.iter().position(|c| *c == color).unwrap_or(0) + 1) % COLORS.len()];
    }
    Consts {
        bid: boats[skewed(rng, boats.len())],
        color,
        other_color,
        rating: 1 + skewed(rng, 10) as i64,
    }
}

/// Read template `q` (1..=8) in `lang` with constants `c`: the suite's
/// eight queries with their literals parameterized and a rating bound
/// added, written so every language's form is the same query.
fn template(q: usize, lang: Lang, c: Consts) -> String {
    let Consts {
        bid,
        color,
        other_color: color2,
        rating: k,
    } = c;
    match (q, lang) {
        (1, Lang::Sql) => format!(
            "SELECT DISTINCT S.sname FROM Sailor S, Reserves R \
             WHERE S.sid = R.sid AND R.bid = {bid} AND S.rating >= {k}"
        ),
        (1, Lang::Trc) => format!(
            "{{s.sname | Sailor(s) and s.rating >= {k} and \
             exists r in Reserves: (r.sid = s.sid and r.bid = {bid})}}"
        ),
        (1, Lang::Datalog) => format!("ans(N) :- Sailor(S, N, R, A), Reserves(S, {bid}, D), R >= {k}."),
        (2, Lang::Sql) => format!(
            "SELECT DISTINCT S.sname FROM Sailor S, Reserves R, Boat B \
             WHERE S.sid = R.sid AND R.bid = B.bid AND B.color = '{color}' AND S.rating >= {k}"
        ),
        (2, Lang::Trc) => format!(
            "{{s.sname | Sailor(s) and s.rating >= {k} and exists r in Reserves, b in Boat: \
             (r.sid = s.sid and r.bid = b.bid and b.color = '{color}')}}"
        ),
        (2, Lang::Datalog) => format!(
            "ans(N) :- Sailor(S, N, R, A), Reserves(S, B, D), Boat(B, BN, '{color}'), R >= {k}."
        ),
        (3, Lang::Sql) => format!(
            "SELECT S.sname FROM Sailor S, Reserves R, Boat B \
             WHERE S.sid = R.sid AND R.bid = B.bid AND B.color = '{color}' AND S.rating >= {k} \
             UNION \
             SELECT S.sname FROM Sailor S, Reserves R, Boat B \
             WHERE S.sid = R.sid AND R.bid = B.bid AND B.color = '{color2}' AND S.rating >= {k}"
        ),
        (3, Lang::Trc) => format!(
            "{{s.sname | Sailor(s) and s.rating >= {k} and exists r in Reserves, b in Boat: \
             (r.sid = s.sid and r.bid = b.bid and b.color = '{color}')}} \
             union \
             {{s.sname | Sailor(s) and s.rating >= {k} and exists r in Reserves, b in Boat: \
             (r.sid = s.sid and r.bid = b.bid and b.color = '{color2}')}}"
        ),
        (3, Lang::Datalog) => format!(
            "ans(N) :- Sailor(S, N, R, A), Reserves(S, B, D), Boat(B, BN, '{color}'), R >= {k}.\n\
             ans(N) :- Sailor(S, N, R, A), Reserves(S, B, D), Boat(B, BN, '{color2}'), R >= {k}."
        ),
        (4, Lang::Sql) => format!(
            "SELECT S.sname FROM Sailor S WHERE S.rating >= {k} AND NOT EXISTS \
             (SELECT * FROM Reserves R, Boat B \
              WHERE R.sid = S.sid AND R.bid = B.bid AND B.color = '{color}')"
        ),
        (4, Lang::Trc) => format!(
            "{{s.sname | Sailor(s) and s.rating >= {k} and not exists r in Reserves, b in Boat: \
             (r.sid = s.sid and r.bid = b.bid and b.color = '{color}')}}"
        ),
        (4, Lang::Datalog) => format!(
            "% query: ans\n\
             redres(S) :- Reserves(S, B, D), Boat(B, BN, '{color}').\n\
             ans(N) :- Sailor(S, N, R, A), R >= {k}, not redres(S)."
        ),
        (5, Lang::Sql) => format!(
            "SELECT S.sname FROM Sailor S WHERE S.rating >= {k} AND NOT EXISTS \
             (SELECT * FROM Boat B WHERE B.color = '{color}' AND NOT EXISTS \
               (SELECT * FROM Reserves R WHERE R.sid = S.sid AND R.bid = B.bid))"
        ),
        (5, Lang::Trc) => format!(
            "{{s.sname | Sailor(s) and s.rating >= {k} and not exists b in Boat: \
             (b.color = '{color}' and not exists r in Reserves: (r.sid = s.sid and r.bid = b.bid))}}"
        ),
        (5, Lang::Datalog) => format!(
            "% query: ans\n\
             res2(S, B) :- Reserves(S, B, D).\n\
             missing(S) :- Sailor(S, N, R, A), Boat(B, BN, '{color}'), not res2(S, B).\n\
             ans(N) :- Sailor(S, N, R, A), R >= {k}, not missing(S)."
        ),
        (6, Lang::Sql) => format!(
            "SELECT S.sname FROM Sailor S WHERE S.rating >= {k} AND NOT EXISTS \
             (SELECT * FROM Reserves R, Boat B \
              WHERE R.sid = S.sid AND R.bid = B.bid AND B.color <> '{color}') \
             AND EXISTS (SELECT * FROM Reserves R2 WHERE R2.sid = S.sid)"
        ),
        (6, Lang::Trc) => format!(
            "{{s.sname | Sailor(s) and s.rating >= {k} and not exists r in Reserves, b in Boat: \
             (r.sid = s.sid and r.bid = b.bid and b.color <> '{color}') \
             and exists r2 in Reserves: (r2.sid = s.sid)}}"
        ),
        (6, Lang::Datalog) => format!(
            "% query: ans\n\
             nonred(S) :- Reserves(S, B, D), Boat(B, BN, C), C != '{color}'.\n\
             hasres(S) :- Reserves(S, B, D).\n\
             ans(N) :- Sailor(S, N, R, A), R >= {k}, hasres(S), not nonred(S)."
        ),
        (7, Lang::Sql) => format!(
            "SELECT S1.sname, S2.sname FROM Sailor S1, Sailor S2 \
             WHERE S1.rating = S2.rating AND S1.sid < S2.sid AND S1.rating >= {k}"
        ),
        (7, Lang::Trc) => format!(
            "{{s1.sname, s2.sname | Sailor(s1), Sailor(s2) and \
             s1.rating = s2.rating and s1.sid < s2.sid and s1.rating >= {k}}}"
        ),
        (7, Lang::Datalog) => format!(
            "ans(N1, N2) :- Sailor(S1, N1, R1, A1), Sailor(S2, N2, R2, A2), \
             R1 = R2, S1 < S2, R1 >= {k}."
        ),
        (8, Lang::Sql) => format!(
            "SELECT S.sname FROM Sailor S WHERE S.rating >= ALL \
             (SELECT S2.rating FROM Sailor S2 WHERE S2.rating <= {k})"
        ),
        (8, Lang::Trc) => format!(
            "{{s.sname | Sailor(s) and not exists s2 in Sailor: \
             (s2.rating <= {k} and s.rating < s2.rating)}}"
        ),
        (8, Lang::Datalog) => format!(
            "% query: ans\n\
             beaten(R1) :- Sailor(S1, N1, R1, A1), Sailor(S2, N2, R2, A2), R2 <= {k}, R1 < R2.\n\
             ans(N) :- Sailor(S, N, R, A), not beaten(R)."
        ),
        _ => unreachable!("templates are Q1..Q8"),
    }
}

fn lang_name(lang: Lang) -> &'static str {
    match lang {
        Lang::Sql => "sql",
        Lang::Trc => "trc",
        Lang::Datalog => "datalog",
    }
}

fn lang_of(name: &str) -> Lang {
    LANGS
        .iter()
        .find(|(_, n)| *n == name)
        .map(|(l, _)| *l)
        .expect("known language")
}

fn suite_text(id: &str, lang: &str) -> &'static str {
    let q = SUITE.iter().find(|q| q.id == id).expect("suite query");
    match lang {
        "sql" => q.sql,
        "trc" => q.trc,
        _ => q.datalog,
    }
}

/// The seeded, unbounded op sequence of one workload.
pub struct OpStream<'w> {
    workload: &'w Workload,
    rng: StdRng,
    pending: VecDeque<Op>,
    round: usize,
    next_id: u64,
    /// serve_recursive's reachability sources.
    reach: Vec<i64>,
}

impl OpStream<'_> {
    pub fn next_op(&mut self) -> Op {
        if self.pending.is_empty() {
            self.refill();
        }
        self.pending.pop_front().expect("refill produces a round")
    }

    fn id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id - 1
    }

    fn query(&mut self, kind: usize, lang: Lang, text: String) -> Op {
        let id = self.id();
        let line = format!(
            "{{\"type\":\"query\",\"id\":{id},\"db\":\"{DB}\",\"lang\":\"{}\",\"query\":\"{}\"}}",
            lang_name(lang),
            escape(&text)
        );
        Op {
            kind,
            id,
            request: Request::Query { lang, text },
            line,
        }
    }

    /// Op type `kind` at its canonical constants.
    fn canonical(&mut self, kind: usize) -> Op {
        let label = self.workload.kinds[kind].clone();
        match self.workload.name {
            Name::ServeScan => {
                let (id, lang) = label.split_once('.').expect("Qn.lang");
                self.query(kind, lang_of(lang), suite_text(id, lang).to_string())
            }
            Name::ServeRecursive => {
                let text = match label.as_str() {
                    "tc" => TC.to_string(),
                    "sg" => SG.to_string(),
                    _ => {
                        let c = self.reach[kind - 2];
                        format!("% query: q\n{TC}\nq(Y) :- tc({c}, Y).")
                    }
                };
                self.query(kind, Lang::Datalog, text)
            }
            Name::ServeAdhoc => {
                let (q, lang) = (kind / 3 + 1, LANGS[kind % 3].0);
                self.query(kind, lang, template(q, lang, CANONICAL))
            }
            Name::ShowGallery => {
                let sql = template(kind + 1, Lang::Sql, CANONICAL);
                Op {
                    kind,
                    id: 0,
                    request: Request::Render,
                    line: sql,
                }
            }
        }
    }

    fn shuffled(&mut self, mut kinds: Vec<usize>) -> Vec<usize> {
        for i in (1..kinds.len()).rev() {
            let j = self.rng.gen_range(0..=i);
            kinds.swap(i, j);
        }
        kinds
    }

    /// Appends one round: every op type in its designed proportion, in a
    /// seeded order.
    fn refill(&mut self) {
        let round = self.round;
        self.round += 1;
        match self.workload.name {
            Name::ServeScan => {
                for kind in self.shuffled((0..self.workload.kinds.len()).collect()) {
                    let op = self.canonical(kind);
                    self.pending.push_back(op);
                }
            }
            Name::ServeRecursive => {
                // Three tc, three sg and two of the four bound goals per
                // round of eight: p50 falls inside tc's band and p95 inside
                // sg's, away from the cheap bound goals.
                let reach = 2 + (2 * round) % RECURSIVE_REACH_GOALS;
                let kinds = self.shuffled(vec![0, 0, 0, 1, 1, 1, reach, reach + 1]);
                for kind in kinds {
                    let op = self.canonical(kind);
                    self.pending.push_back(op);
                }
            }
            Name::ServeAdhoc => {
                let boats = adhoc_boats();
                let reads = (0..ADHOC_READS_PER_WRITE)
                    .map(|i| i % ADHOC_TEMPLATES)
                    .collect();
                for kind in self.shuffled(reads) {
                    let c = draw_consts(&mut self.rng, &boats);
                    let (q, lang) = (kind / 3 + 1, LANGS[kind % 3].0);
                    let op = self.query(kind, lang, template(q, lang, c));
                    self.pending.push_back(op);
                }
                let op = if round % ADHOC_WRITES_PER_LOAD == ADHOC_WRITES_PER_LOAD - 1 {
                    let id = self.id();
                    Op {
                        kind: ADHOC_TEMPLATES + 1,
                        id,
                        request: Request::Load,
                        line: self.workload.load_frame(id),
                    }
                } else {
                    self.insert_op(round)
                };
                self.pending.push_back(op);
            }
            Name::ShowGallery => {
                let bids = [101, 102, 103, 104];
                for kind in self.shuffled(GALLERY_ROUND.to_vec()) {
                    let c = draw_consts(&mut self.rng, &bids);
                    let sql = template(kind + 1, Lang::Sql, c);
                    self.pending.push_back(Op {
                        kind,
                        id: 0,
                        request: Request::Render,
                        line: sql,
                    });
                }
            }
        }
    }

    /// serve_adhoc's insert: one new sailor (a fresh sid, so the database
    /// really grows) and a few reservations by existing sailors.
    fn insert_op(&mut self, round: usize) -> Op {
        let base = GenConfig::scaled(ADHOC_TUPLES);
        let mut sailors = Relation::empty(sailor_schema());
        let sid = 10 + (base.sailors + round) as i64;
        sailors.insert_unchecked(Tuple::new(vec![
            Value::Int(sid),
            Value::str(["ada", "grace", "edsger", "barbara"][round % 4]),
            Value::Int(self.rng.gen_range(1..=10i64)),
            Value::Float(f64::from(self.rng.gen_range(16..=70i32))),
        ]));
        let mut reserves = Relation::empty(reserves_schema());
        for _ in 0..ADHOC_INSERT_RESERVATIONS {
            let sid = if self.rng.gen_bool(0.5) {
                sid
            } else {
                10 + self.rng.gen_range(0..base.sailors) as i64
            };
            reserves.insert_unchecked(Tuple::new(vec![
                Value::Int(sid),
                Value::Int(100 + self.rng.gen_range(0..base.boats) as i64),
                Value::str(format!(
                    "{}/{}/99",
                    self.rng.gen_range(1..=12),
                    self.rng.gen_range(1..=28)
                )),
            ]));
        }
        let mut fragment = Database::new();
        fragment.add("Sailor", sailors).expect("fresh name");
        fragment.add("Reserves", reserves).expect("fresh name");
        let id = self.id();
        let line = format!(
            "{{\"type\":\"insert\",\"id\":{id},\"db\":\"{DB}\",\"text\":\"{}\"}}",
            escape(&dump_database(&fragment))
        );
        Op {
            kind: ADHOC_TEMPLATES,
            id,
            request: Request::Insert { fragment },
            line,
        }
    }
}

/// serve_adhoc's boat ids (the generator numbers boats from 100).
fn adhoc_boats() -> Vec<i64> {
    (0..GenConfig::scaled(ADHOC_TUPLES).boats as i64)
        .map(|i| 100 + i)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_hash_and_ops() {
        for name in Name::ALL {
            let a = Workload::generate(name, 7);
            let b = Workload::generate(name, 7);
            assert_eq!(a.content_hash(), b.content_hash(), "{}", name.as_str());
            let (mut sa, mut sb) = (a.ops(), b.ops());
            for _ in 0..100 {
                assert_eq!(sa.next_op().line, sb.next_op().line);
            }
        }
    }

    #[test]
    fn different_seed_different_hash() {
        for name in Name::ALL {
            let a = Workload::generate(name, 7).content_hash();
            let b = Workload::generate(name, 8).content_hash();
            assert_ne!(a, b, "{}", name.as_str());
        }
    }

    #[test]
    fn rounds_hold_the_designed_mix() {
        let w = Workload::generate(Name::ServeRecursive, 3);
        let mut ops = w.ops();
        let mut counts = vec![0usize; w.kinds.len()];
        for _ in 0..8 * 10 {
            counts[ops.next_op().kind] += 1;
        }
        assert_eq!(&counts[..2], &[30, 30]);
        assert_eq!(counts[2..].iter().sum::<usize>(), 20);

        let w = Workload::generate(Name::ServeAdhoc, 3);
        let mut ops = w.ops();
        let mut writes = 0;
        let mut loads = 0;
        for _ in 0..(ADHOC_READS_PER_WRITE + 1) * ADHOC_WRITES_PER_LOAD {
            match ops.next_op().request {
                Request::Insert { .. } => writes += 1,
                Request::Load => loads += 1,
                _ => {}
            }
        }
        assert_eq!((writes, loads), (ADHOC_WRITES_PER_LOAD - 1, 1));
    }

    #[test]
    fn setup_covers_every_read_kind_once() {
        for name in Name::ALL {
            let w = Workload::generate(name, 1);
            let kinds: Vec<usize> = w.setup_ops().iter().map(|op| op.kind).collect();
            assert_eq!(kinds, (0..w.distinct_reads()).collect::<Vec<_>>());
        }
    }
}
