//! The measurement harness: fresh set-ups, the warm-up and its mix guard,
//! the measured closed loop with answer checks outside each op's timed
//! region, and the traced replay.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use crate::affinity;
use crate::stats::{self, MixRow};
use crate::trace::{self, Tracer};
use crate::workload::{Op, Workload};

/// A system the benchmark drives, with its checks and its traced replica.
pub trait Subject: Sized {
    /// What one op returns.
    type Out;
    /// Expectations computed off the measured path.
    type Checker;
    /// State the traced replay keeps in step with the subject.
    type Replica;
    /// What one replayed op returns.
    type Replayed;

    /// A fresh instance brought to steady state, with the outputs of the
    /// set-up's own ops. Timed as set-up.
    fn setup(w: &Workload) -> (Self, Vec<(Op, Self::Out)>);
    /// One op: the timed region.
    fn run(&self, op: &Op) -> Self::Out;
    /// A checker for a freshly set-up instance.
    fn checker(w: &Workload) -> Self::Checker;
    /// A checker for another fresh instance, keeping what `checker` has
    /// learned that holds for every instance.
    fn fork(checker: &Self::Checker) -> Self::Checker;
    fn check(checker: &mut Self::Checker, op: &Op, out: &Self::Out) -> Result<(), String>;
    /// A replica in the state of a fresh instance before set-up.
    fn replica(w: &Workload) -> Self::Replica;
    /// Replays `op` through the layers' public functions, spans in `tr`.
    fn replay(
        replica: &mut Self::Replica,
        tr: &mut Tracer,
        op: &Op,
        facts: &mut Facts,
    ) -> Self::Replayed;
    /// Replay fidelity: the replay must return exactly what `run` did.
    fn compare(replayed: &Self::Replayed, out: &Self::Out) -> Result<(), String>;
}

/// The exec event counters read around each replayed op.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts(pub [usize; 5]);

impl Counts {
    /// Metric names, in slot order.
    pub const METRICS: [&'static str; 5] = [
        "exec.materializations_per_op",
        "exec.column_builds_per_op",
        "exec.index_builds_per_op",
        "exec.bitmap_allocs_per_op",
        "exec.deep_copies_per_op",
    ];

    /// This thread's counters (`relviz_exec::stats::counters`).
    pub fn now() -> Counts {
        use relviz_exec::stats::counters;
        Counts([
            counters::materializations(),
            counters::column_builds(),
            counters::index_builds(),
            counters::bitmap_allocs(),
            counters::deep_copies(),
        ])
    }

    pub fn minus(&self, other: &Counts) -> Counts {
        Counts(std::array::from_fn(|i| self.0[i] - other.0[i]))
    }

    fn add(&mut self, other: &Counts) {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a += b;
        }
    }
}

/// What a replayed op reports besides its spans.
#[derive(Debug, Default)]
pub struct Facts {
    pub bytes_out: usize,
    pub rows: Option<usize>,
    pub cache_hit: Option<bool>,
    pub plan_cache_len: Option<usize>,
    pub refusals: Option<usize>,
    /// Counter deltas of side measurements, not charged to the op.
    pub side: Counts,
}

/// Run lengths, per workload. Op counts are whole rounds, so every
/// stretch of ops holds each op type in its designed proportion.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    /// How long the measured loop runs.
    pub seconds: f64,
    /// Ops per round of the workload's op sequence.
    pub round_len: usize,
    /// Rounds per measured block (see [`QUIET_SHARE`]).
    pub block_rounds: usize,
    /// Rounds of warm-up before measurement; the warm-up feeds the mix
    /// guard.
    pub warmup_rounds: usize,
    /// Rounds in the traced replay, and in the untraced run it is
    /// compared with: fixed, so counts repeat exactly for a seed.
    pub traced_rounds: usize,
}

/// The share of measured blocks, the fastest by total op time, whose ops
/// the end-to-end latency metrics describe. The host's cores are shared:
/// other tenants' load slows every op alike, by up to 2x, in episodes
/// from seconds to minutes long, so a plain median over a run measures
/// the neighbours as much as relviz. Every block holds the same whole
/// rounds of op types (and serve_adhoc's whole write-and-reload cycle),
/// so keeping the quietest blocks drops contended stretches without
/// changing the op mix.
pub const QUIET_SHARE: f64 = 0.2;

/// Fresh set-ups per measured run, one before the warm-up and the rest
/// between measured blocks; `setup_s` is the median of the quietest
/// [`QUIET_SHARE`] of them.
const SETUPS: usize = 16;

/// Highest percentile reported, and how many samples must lie beyond it.
const TOP_PERCENTILE: f64 = 0.95;
const SAMPLES_BEYOND: usize = 10;
/// The mix guard's window around p50 and p95, and the largest median
/// ratio it tolerates among op types inside it.
const MIX_WINDOW: f64 = 0.05;
const MIX_MAX_RATIO: f64 = 2.0;

/// Check outcomes of one run.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    fn record(&mut self, what: &str, op: &Op, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!(
                    "perfbench: {what} failed on op id {} kind {}: {e}",
                    op.id, op.kind
                );
            }
        }
    }
}

/// A finished run: metrics by name, with units.
pub struct Report {
    pub tally: Tally,
    pub metrics: Vec<(String, f64, &'static str)>,
}

/// Why a run refused to report.
pub struct Refusal(pub String);

/// A fresh set-up: the instance, its checker (which has checked the
/// set-up's own outputs), those outputs, and the set-up's time.
struct SetUp<S: Subject> {
    subject: S,
    checker: S::Checker,
    outs: Vec<(Op, S::Out)>,
    seconds: f64,
}

fn set_up<S: Subject>(w: &Workload, mut checker: S::Checker, tally: &mut Tally) -> SetUp<S> {
    let t0 = Instant::now();
    let (subject, outs) = S::setup(w);
    let seconds = t0.elapsed().as_secs_f64();
    for (op, out) in &outs {
        tally.record("set-up check", op, S::check(&mut checker, op, out));
    }
    SetUp {
        subject,
        checker,
        outs,
        seconds,
    }
}

/// Runs one op untraced, timing only the call; a panic is a failed op.
fn timed<S: Subject>(subject: &S, op: &Op) -> (f64, Option<S::Out>) {
    let t0 = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(|| subject.run(op)));
    (t0.elapsed().as_secs_f64() * 1e3, out.ok())
}

fn check_out<S: Subject>(
    checker: &mut S::Checker,
    op: &Op,
    out: Option<&S::Out>,
    tally: &mut Tally,
) {
    match out {
        Some(out) => tally.record("answer check", op, S::check(checker, op, out)),
        None => tally.record("op", op, Err("panicked".into())),
    }
}

/// Per op type: share of the sample and median latency.
fn mix_rows(kinds: &[String], samples: &[(usize, f64)]) -> Vec<MixRow> {
    let mut rows = Vec::new();
    for (k, kind) in kinds.iter().enumerate() {
        let lat: Vec<f64> = samples
            .iter()
            .filter(|(kk, _)| *kk == k)
            .map(|(_, l)| *l)
            .collect();
        if lat.is_empty() {
            continue;
        }
        rows.push(MixRow {
            kind: kind.clone(),
            share: lat.len() as f64 / samples.len() as f64,
            median_ms: stats::median(&stats::sorted(&lat)),
        });
    }
    rows
}

/// Prints the warm-up mix and refuses a mix whose p50 or p95 sits where
/// op types with very different medians meet.
fn mix_guard(kinds: &[String], warm: &[(usize, f64)]) -> Result<(), Refusal> {
    let mut rows = mix_rows(kinds, warm);
    rows.sort_by(|a, b| a.median_ms.total_cmp(&b.median_ms));
    println!(
        "# warm-up mix ({} ops), by median: kind share median_ms cumulative",
        warm.len()
    );
    let mut cum = 0.0;
    for r in &rows {
        cum += r.share;
        println!(
            "#   {:<14} {:.4} {:>9.4} {:.4}",
            r.kind, r.share, r.median_ms, cum
        );
    }
    let hazards = stats::mix_hazards(&rows, &[0.5, TOP_PERCENTILE], MIX_WINDOW, MIX_MAX_RATIO);
    if hazards.is_empty() {
        return Ok(());
    }
    let why: Vec<String> = hazards
        .iter()
        .map(|h| {
            format!(
                "p{:.0} lies within {MIX_WINDOW} of a boundary between `{}` and `{}` (medians {:.1}x apart)",
                h.percentile * 100.0,
                h.fastest,
                h.slowest,
                h.ratio
            )
        })
        .collect();
    Err(Refusal(format!("mix refused: {}", why.join("; "))))
}

/// Peak resident set size of this process (VmHWM), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end run: set-ups, warm-up, then `seconds` of closed-loop
/// ops from one client in blocks of whole rounds, every answer checked
/// outside its op's timed region.
pub fn measure<S: Subject>(w: &Workload, settings: &Settings) -> Result<Report, Refusal> {
    let mut tally = Tally::default();
    let SetUp {
        subject,
        mut checker,
        seconds,
        ..
    } = set_up::<S>(w, S::checker(w), &mut tally);
    let mut setup_s = vec![seconds];
    let mut ops = w.ops();
    let mut warm = Vec::new();
    for _ in 0..settings.warmup_rounds * settings.round_len {
        let op = ops.next_op();
        let (ms, out) = timed(&subject, &op);
        check_out::<S>(&mut checker, &op, out.as_ref(), &mut tally);
        warm.push((op.kind, ms));
    }
    mix_guard(&w.kinds, &warm)?;

    let block_len = settings.block_rounds * settings.round_len;
    let min_samples = stats::min_samples_for(TOP_PERCENTILE, SAMPLES_BEYOND);
    let kept_ops = |blocks: usize| quiet_count(blocks) * block_len;
    // Blocks rotate over the allowed CPUs, so the quiet ones can come from
    // whichever core other tenants leave idle (see `affinity`).
    let cpus = affinity::allowed_cpus();
    let mut blocks: Vec<Vec<(usize, f64)>> = Vec::new();
    let mut block_cpu: Vec<Option<usize>> = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < settings.seconds || kept_ops(blocks.len()) < min_samples {
        if start.elapsed().as_secs_f64() > 3.0 * settings.seconds + 30.0 {
            return Err(Refusal(format!(
                "only {} ops would be kept in the time allowed; p95 needs {min_samples}",
                kept_ops(blocks.len())
            )));
        }
        let cpu = cpus.get(blocks.len() % cpus.len().max(1)).copied();
        block_cpu.push(cpu.filter(|&c| cpus.len() > 1 && affinity::pin(&[c])));
        let mut block = Vec::with_capacity(block_len);
        for _ in 0..block_len {
            let op = ops.next_op();
            let (ms, out) = timed(&subject, &op);
            check_out::<S>(&mut checker, &op, out.as_ref(), &mut tally);
            block.push((op.kind, ms));
        }
        blocks.push(block);
        // Further set-ups at even intervals between blocks, each torn
        // down once timed, so set-up time is sampled across the run like
        // the ops are.
        let due = settings.seconds * setup_s.len() as f64 / SETUPS as f64;
        if setup_s.len() < SETUPS && start.elapsed().as_secs_f64() >= due {
            setup_s.push(set_up::<S>(w, S::fork(&checker), &mut tally).seconds);
        }
    }

    affinity::pin(&cpus);
    let busy = |b: &Vec<(usize, f64)>| b.iter().map(|(_, l)| l).sum::<f64>();
    let all: Vec<f64> = blocks.iter().flatten().map(|(_, l)| *l).collect();
    let mut order: Vec<usize> = (0..blocks.len()).collect();
    order.sort_by(|&a, &b| busy(&blocks[a]).total_cmp(&busy(&blocks[b])));
    let keep = quiet_count(blocks.len());
    let quiet: Vec<(usize, f64)> = order[..keep]
        .iter()
        .flat_map(|&i| blocks[i].iter().copied())
        .collect();
    let kept_on: Vec<String> = cpus
        .iter()
        .map(|&c| {
            let n = order[..keep]
                .iter()
                .filter(|&&i| block_cpu[i] == Some(c))
                .count();
            format!("cpu{c}:{n}")
        })
        .collect();
    let lat = stats::sorted(&quiet.iter().map(|(_, l)| *l).collect::<Vec<_>>());
    let all = stats::sorted(&all);
    println!("# measured mix, quiet blocks: kind share median_ms");
    for r in mix_rows(&w.kinds, &quiet) {
        println!("#   {:<14} {:.4} {:>9.4}", r.kind, r.share, r.median_ms);
    }
    println!(
        "# blocks of {block_len} ops: {} measured, the quietest {keep} kept ({}); block busy_ms {:.1} (kept max) .. {:.1} (max)",
        blocks.len(),
        kept_on.join(" "),
        busy(&blocks[order[keep - 1]]),
        busy(&blocks[order[blocks.len() - 1]])
    );
    println!(
        "# samples {} kept ({} beyond p95) of {}; all ops: p50_ms {} p95_ms {}",
        lat.len(),
        stats::samples_beyond(lat.len(), TOP_PERCENTILE),
        all.len(),
        stats::percentile(&all, 0.5),
        stats::percentile(&all, TOP_PERCENTILE)
    );
    if setup_s.len() >= 2 {
        let [q1, q2, q3] = stats::quartiles(&stats::sorted(&setup_s));
        println!(
            "# setup_s over {} set-ups: quartiles {q1} {q2} {q3}",
            setup_s.len()
        );
    }
    println!(
        "# error_rate {} ratio ({} failed of {} attempted)",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    let busy_s: f64 = lat.iter().sum::<f64>() / 1e3;
    let values = [
        quiet_median(&setup_s),
        lat.len() as f64 / busy_s,
        stats::percentile(&lat, 0.5),
        stats::percentile(&lat, TOP_PERCENTILE),
        peak_rss_mb(),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name.to_string(), v, unit))
        .collect();
    Ok(Report { tally, metrics })
}

/// The median of the quietest [`QUIET_SHARE`] of repeated timings of
/// identical work.
fn quiet_median(seconds: &[f64]) -> f64 {
    let sorted = stats::sorted(seconds);
    stats::median(&sorted[..quiet_count(sorted.len())])
}

/// How many of `blocks` measured blocks are kept as quiet.
fn quiet_count(blocks: usize) -> usize {
    ((blocks as f64 * QUIET_SHARE).floor() as usize)
        .max(1)
        .min(blocks)
}

/// The end-to-end metrics and their units, in report order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p95_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Span names of the layers, each reported as `<name>_ms` (median self
/// time per op, over the ops that reach the layer) and `<name>_share`
/// (its share of total op time).
pub const LAYERS: [&str; 24] = [
    "serve.wire.parse",
    "serve.wire.frame",
    "serve.catalog.snapshot",
    "serve.catalog.write",
    "serve.cache.lookup",
    "serve.cache.put",
    "serve.cache.purge",
    "model.db_parse",
    "sql.parse",
    "sql.print",
    "rc.from_sql",
    "rc.trc_parse",
    "datalog.parse",
    "exec.magic",
    "exec.plan",
    "exec.run",
    "exec.finalize",
    "exec.fixpoint",
    "model.render",
    "rc.translate",
    "diagrams.build",
    "diagrams.scene",
    "render.svg",
    "core.pipeline",
];

/// The side measurement of scan materialization.
pub const MATERIALIZE: &str = "exec.materialize";

/// Every per-layer metric name, with its unit, in report order.
pub fn layer_metric_names() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for l in LAYERS.iter().chain([&MATERIALIZE]) {
        out.push((format!("{l}_ms"), "ms"));
        out.push((format!("{l}_share"), "ratio"));
    }
    for c in Counts::METRICS {
        out.push((c.to_string(), "1/op"));
    }
    for (name, unit) in [
        ("serve.wire.bytes_out_per_op", "B/op"),
        ("serve.cache.hit_rate", "ratio"),
        ("serve.cache.len", "count"),
        ("exec.opt.sketch_cache_len", "count"),
        ("model.rows_per_op", "1/op"),
        ("diagrams.refusals_per_op", "1/op"),
        ("trace.coverage", "ratio"),
        ("trace.overhead", "ratio"),
        ("trace.ops", "count"),
    ] {
        out.push((name.to_string(), unit));
    }
    out
}

/// The traced run: the same set-up and warm-up, then a fixed number of
/// ops each replayed through the layers' public functions under spans,
/// each followed by the untraced call, which the replay must match byte
/// for byte and which is the baseline for the tracing overhead (run
/// alternately, both see the same host conditions).
pub fn traced<S: Subject>(
    w: &Workload,
    settings: &Settings,
    spans_out: &Path,
) -> Result<Report, Refusal> {
    let mut tally = Tally::default();
    let SetUp {
        subject,
        mut checker,
        outs,
        ..
    } = set_up::<S>(w, S::checker(w), &mut tally);
    let mut replica = S::replica(w);
    let mut tr = Tracer::new();
    for (op, out) in &outs {
        let replayed = S::replay(&mut replica, &mut tr, op, &mut Facts::default());
        tally.record("replay fidelity", op, S::compare(&replayed, out));
    }
    let mut ops = w.ops();
    // Each op is replayed before the subject runs it, so anything the
    // replay warms (the process-wide sketch cache) the replay pays for.
    let mut step = |tr: &mut Tracer, facts: &mut Facts, tally: &mut Tally| {
        let op = ops.next_op();
        let before = Counts::now();
        let root = tr.begin_op();
        let replayed = S::replay(&mut replica, tr, &op, facts);
        tr.end(root);
        let counts = Counts::now().minus(&before).minus(&facts.side);
        let (ms, out) = timed(&subject, &op);
        if let Some(out) = &out {
            tally.record("replay fidelity", &op, S::compare(&replayed, out));
        }
        check_out::<S>(&mut checker, &op, out.as_ref(), tally);
        (op.kind, ms, counts)
    };
    let mut warm = Vec::new();
    for _ in 0..settings.warmup_rounds * settings.round_len {
        let (kind, ms, _) = step(&mut tr, &mut Facts::default(), &mut tally);
        warm.push((kind, ms));
    }
    mix_guard(&w.kinds, &warm)?;

    tr.set_on(true);
    let n = settings.traced_rounds * settings.round_len;
    let (mut counts, mut bytes, mut rows, mut refusals) =
        (Counts::default(), 0usize, 0usize, 0usize);
    let (mut lookups, mut hits) = (0usize, 0usize);
    let mut cache_len = Vec::with_capacity(n);
    let mut untraced = Vec::with_capacity(n);
    for _ in 0..n {
        let mut facts = Facts::default();
        let (_, ms, c) = step(&mut tr, &mut facts, &mut tally);
        untraced.push(ms);
        counts.add(&c);
        bytes += facts.bytes_out;
        rows += facts.rows.unwrap_or(0);
        refusals += facts.refusals.unwrap_or(0);
        if let Some(hit) = facts.cache_hit {
            lookups += 1;
            hits += usize::from(hit);
        }
        if let Some(len) = facts.plan_cache_len {
            cache_len.push(len as f64);
        }
    }
    tr.set_on(false);
    let sketch_cache_len = relviz_exec::stats_cache_len();

    let layers = trace::aggregate(tr.spans());
    if let Err(e) = tr.write_jsonl(spans_out) {
        eprintln!("perfbench: cannot write {}: {e}", spans_out.display());
    }
    println!(
        "# spans: {} written to {}",
        tr.spans().len(),
        spans_out.display()
    );
    let op_total = layers.op_time_total().max(1) as f64;
    let traced_ms: Vec<f64> = layers.op_times.iter().map(|&ns| ns as f64 / 1e6).collect();
    let traced_p50 = stats::percentile(&stats::sorted(&traced_ms), 0.5);
    let untraced_p50 = stats::percentile(&stats::sorted(&untraced), 0.5);
    let per_op = |total: usize| total as f64 / n.max(1) as f64;

    let mut values: HashMap<String, f64> = HashMap::new();
    for l in LAYERS {
        values.insert(format!("{l}_ms"), layers.median_ms(l));
        values.insert(format!("{l}_share"), layers.total_ns(l) as f64 / op_total);
    }
    let exec_ns = (layers.total_ns("exec.run") + layers.total_ns("exec.fixpoint")).max(1) as f64;
    values.insert(format!("{MATERIALIZE}_ms"), layers.median_ms(MATERIALIZE));
    values.insert(
        format!("{MATERIALIZE}_share"),
        layers.total_ns(MATERIALIZE) as f64 / exec_ns,
    );
    for (name, c) in Counts::METRICS.iter().zip(counts.0) {
        values.insert(name.to_string(), per_op(c));
    }
    let median_len = if cache_len.is_empty() {
        0.0
    } else {
        stats::median(&stats::sorted(&cache_len))
    };
    for (name, value) in [
        ("serve.wire.bytes_out_per_op", per_op(bytes)),
        ("serve.cache.hit_rate", hits as f64 / lookups.max(1) as f64),
        ("serve.cache.len", median_len),
        ("exec.opt.sketch_cache_len", sketch_cache_len as f64),
        ("model.rows_per_op", per_op(rows)),
        ("diagrams.refusals_per_op", per_op(refusals)),
        ("trace.coverage", layers.covered as f64 / op_total),
        ("trace.overhead", traced_p50 / untraced_p50 - 1.0),
        ("trace.ops", n as f64),
    ] {
        values.insert(name.to_string(), value);
    }
    let metrics = layer_metric_names()
        .into_iter()
        .map(|(name, unit)| {
            let value = values
                .remove(&name)
                .expect("every per-layer metric is computed");
            (name, value, unit)
        })
        .collect();
    debug_assert!(values.is_empty(), "unlisted per-layer metrics: {values:?}");
    println!("# traced p50 {traced_p50} ms, untraced p50 {untraced_p50} ms, over the same {n} ops");
    Ok(Report { tally, metrics })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Name;
    use relviz_serve::Json;

    /// `BENCHMARK.json`, beside this package.
    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        Json::parse(&text).expect("BENCHMARK.json is JSON")
    }

    fn names_and_units(doc: &Json, key: &str) -> Vec<(String, String)> {
        let Some(Json::Arr(items)) = doc.get(key) else {
            panic!("`{key}` is a list")
        };
        items
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(Json::as_str)
                        .expect("string field")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_what_the_runs_print() {
        let doc = benchmark_json();
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names_and_units(&doc, "end_to_end"), e2e);
        let layers: Vec<(String, String)> = layer_metric_names()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(names_and_units(&doc, "per_layer"), layers);
        let Some(Json::Arr(workloads)) = doc.get("workloads") else {
            panic!("workloads")
        };
        let listed: Vec<&str> = workloads
            .iter()
            .filter_map(|w| w.get("name")?.as_str())
            .collect();
        assert!(!listed.is_empty());
        for name in listed {
            assert!(Name::parse(name).is_some(), "unknown workload `{name}`");
        }
    }

    #[test]
    fn quiet_selection_keeps_a_fifth_and_at_least_one() {
        assert_eq!(quiet_count(60), 12);
        assert_eq!(quiet_count(4), 1);
        assert_eq!(quiet_count(1), 1);
        assert_eq!(
            quiet_median(&[5.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 10.0]),
            1.5
        );
    }
}
