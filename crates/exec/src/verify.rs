//! Static verification of the physical IR, plus a Datalog safety
//! analyzer: every invariant the executors rely on, checked *before*
//! execution.
//!
//! The engine has three execution paths (reference, indexed, parallel)
//! sharing one plan IR; nothing used to guarantee a plan is well-formed
//! short of running it. This module is the inductive-invariant pass for
//! that IR — the contract aggressive rewrites (CSE today, a columnar
//! refactor or cost-based optimizer tomorrow) are checked against:
//!
//! * every `Filter`/`Project`/join-key column index is in bounds for the
//!   child schema, and every node's output schema has the arity its
//!   inputs imply;
//! * column **types** are consistent: a node's declared output types
//!   must [`DataType::unify`] with what its inputs deliver, join-key
//!   pairs and `Union`/`Diff` columns must share a common type —
//!   `Any` unifies with everything (untyped IDB schemas stay quiet),
//!   so only *definite* conflicts report, the ones where the columnar
//!   storage would be asked to hold values of disjoint types under a
//!   typed declaration;
//! * `HashJoin`/`SemiJoin`/`AntiJoin` key lists pair up and are
//!   schema-valid on both sides; residual (`post`) predicates resolve
//!   against the fused left ++ kept-right schema the executor builds;
//! * `Union`/`Diff` inputs agree on arity;
//! * all back-references to a `Shared #n` sub-plan are structurally
//!   consistent (the executor caches the first evaluation — a divergent
//!   copy would silently serve the wrong relation), no `Shared` nests
//!   inside its own definition, and — the parallel-determinism
//!   precondition `prewarm_shared` relies on — no `Shared` caches a
//!   fixpoint scan, whose contents change every round;
//! * `ScanIdb`/`ScanDelta` appear only inside a fixpoint, with the
//!   declared IDB arity, reading only same-or-lower strata; negation
//!   (the right side of `AntiJoin`) reads strictly *lower* strata;
//! * every same-stratum IDB occurrence in a recursive rule has exactly
//!   one delta variant, and each variant substitutes exactly one
//!   occurrence (`ScanDelta`) — the coverage condition that makes
//!   semi-naive evaluation complete.
//!
//! The Datalog analyzer ([`analyze_program`]) lifts the same discipline
//! to source programs: range-restriction safety and stratifiability as
//! errors (with the offending negation cycle printed), plus lints for
//! unused IDB predicates, duplicate (dead) rules, always-false bodies
//! and cartesian-product joins.
//!
//! Wiring: `debug_assertions` builds verify every plan the planners
//! emit (so the differential fuzzers double as verifier fuzzers), the
//! CLI exposes `relviz check` / `run --verify` for release use, and the
//! `*_verified` EXPLAIN variants append a `✓ verified` footer.

use std::collections::{HashMap, HashSet};
use std::fmt;

use relviz_datalog::ast::{Literal, Program, Rule, Term};
use relviz_datalog::stratify;
use relviz_model::{Database, DataType, Schema};
use relviz_ra::Predicate;

use crate::fixpoint::FixpointPlan;
use crate::plan::{OutputCol, PhysPlan};

// ---------------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------------

/// How bad a diagnostic is: `Error` means an executor may panic or
/// return wrong answers; `Warning` flags legal-but-suspicious shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    Error,
    Warning,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Error => write!(f, "error"),
            Severity::Warning => write!(f, "warning"),
        }
    }
}

/// One typed finding: severity, a stable machine-readable code, the
/// span it anchors to (a plan path like `HashJoin.left > Scan R`, or a
/// rule span like `rule 2`), and a human-readable message.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    pub severity: Severity,
    pub code: &'static str,
    pub at: String,
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}] {}: {}", self.severity, self.code, self.at, self.message)
    }
}

/// Number of `Error`-severity diagnostics.
pub fn error_count(diags: &[Diagnostic]) -> usize {
    diags.iter().filter(|d| d.severity == Severity::Error).count()
}

/// Renders diagnostics one per line (the `relviz check` output format).
pub fn render_diagnostics(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&d.to_string());
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------------
// Plan verification
// ---------------------------------------------------------------------------

/// Verifies a standalone physical plan (the `plan_ra_with`/`plan_trc_with`
/// output). Fixpoint scans are rejected here — they only make sense
/// inside [`verify_fixpoint`]. Pass the database to additionally check
/// every `Scan` against the catalog.
pub fn verify_plan(plan: &PhysPlan, db: Option<&Database>) -> Vec<Diagnostic> {
    let mut w = Walker::new(db, None);
    w.walk(plan, "", false);
    w.diags
}

/// Verifies a fixpoint (Datalog) plan: per-node structural invariants
/// in every rule plan, plus the semi-naive obligations — stratum
/// ordering, negation strictly below, delta-variant coverage.
pub fn verify_fixpoint(plan: &FixpointPlan, db: Option<&Database>) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut owner: HashMap<&str, usize> = HashMap::new();
    for (si, s) in plan.strata.iter().enumerate() {
        for p in &s.predicates {
            if owner.insert(p.as_str(), si).is_some() {
                diags.push(Diagnostic {
                    severity: Severity::Error,
                    code: "stratum-overlap",
                    at: format!("stratum {si}"),
                    message: format!("predicate `{p}` belongs to more than one stratum"),
                });
            }
        }
    }
    if !plan.schemas.contains_key(&plan.query) {
        diags.push(Diagnostic {
            severity: Severity::Error,
            code: "query-missing",
            at: "fixpoint".into(),
            message: format!("query predicate `{}` is not derived by any stratum", plan.query),
        });
    }
    for (si, s) in plan.strata.iter().enumerate() {
        let sat = format!("stratum {si}");
        for p in &s.predicates {
            if !plan.schemas.contains_key(p) {
                diags.push(Diagnostic {
                    severity: Severity::Error,
                    code: "predicate-schema",
                    at: sat.clone(),
                    message: format!("predicate `{p}` has no declared schema"),
                });
            }
        }
        let has_deltas = s.rules.iter().any(|r| !r.deltas.is_empty());
        if s.recursive != has_deltas {
            diags.push(Diagnostic {
                severity: Severity::Error,
                code: "recursive-flag",
                at: sat.clone(),
                message: if s.recursive {
                    "stratum is marked recursive but no rule has a delta variant — \
                     iteration rounds would fire no rule"
                        .into()
                } else {
                    "stratum has delta variants but is not marked recursive — \
                     the fixpoint loop would never run them"
                        .into()
                },
            });
        }
        for r in &s.rules {
            let rat = format!("{sat}, rule `{}`", r.rule);
            if !s.predicates.contains(&r.head) {
                diags.push(Diagnostic {
                    severity: Severity::Error,
                    code: "rule-stratum",
                    at: rat.clone(),
                    message: format!("rule head `{}` is not a predicate of this stratum", r.head),
                });
            }
            let head_arity = match plan.schemas.get(&r.head) {
                Some(hs) => Some(hs.arity()),
                None => {
                    diags.push(Diagnostic {
                        severity: Severity::Error,
                        code: "unknown-predicate",
                        at: rat.clone(),
                        message: format!("rule head `{}` has no declared schema", r.head),
                    });
                    None
                }
            };
            if let Some(ha) = head_arity {
                if r.full.schema().arity() != ha {
                    diags.push(Diagnostic {
                        severity: Severity::Error,
                        code: "head-arity",
                        at: format!("{rat}, full"),
                        message: format!(
                            "rule derives arity {} but `{}` is declared with arity {ha}",
                            r.full.schema().arity(),
                            r.head
                        ),
                    });
                }
            }
            let scope =
                FixScope { schemas: &plan.schemas, owner: &owner, stratum: si, in_delta: false };
            let mut w = Walker::new(db, Some(scope));
            w.walk(&r.full, &format!("{rat}, full"), false);
            diags.append(&mut w.diags);

            // Delta coverage: one variant per same-stratum occurrence.
            let expected = count_same_stratum_scans(&r.full, &owner, si);
            if r.deltas.len() != expected {
                diags.push(Diagnostic {
                    severity: Severity::Error,
                    code: "delta-count",
                    at: rat.clone(),
                    message: format!(
                        "rule body has {expected} same-stratum IDB occurrence(s) but \
                         {} delta variant(s) — semi-naive coverage needs exactly one per occurrence",
                        r.deltas.len()
                    ),
                });
            }
            let mut seen_occ = HashSet::new();
            for d in &r.deltas {
                let dat = format!("{rat}, Δ[{}]", d.occurrence);
                if !seen_occ.insert(d.occurrence) {
                    diags.push(Diagnostic {
                        severity: Severity::Error,
                        code: "delta-occurrence",
                        at: dat.clone(),
                        message: format!(
                            "duplicate delta variant for body occurrence {}",
                            d.occurrence
                        ),
                    });
                }
                if let Some(ha) = head_arity {
                    if d.plan.schema().arity() != ha {
                        diags.push(Diagnostic {
                            severity: Severity::Error,
                            code: "head-arity",
                            at: dat.clone(),
                            message: format!(
                                "delta variant derives arity {} but `{}` is declared with arity {ha}",
                                d.plan.schema().arity(),
                                r.head
                            ),
                        });
                    }
                }
                let scope = FixScope {
                    schemas: &plan.schemas,
                    owner: &owner,
                    stratum: si,
                    in_delta: true,
                };
                let mut w = Walker::new(db, Some(scope));
                w.walk(&d.plan, &dat, false);
                let scans = w.delta_scans;
                diags.append(&mut w.diags);
                if scans != 1 {
                    diags.push(Diagnostic {
                        severity: Severity::Error,
                        code: "delta-form",
                        at: dat.clone(),
                        message: format!(
                            "delta variant contains {scans} `ScanDelta` node(s) — each variant \
                             substitutes exactly one body occurrence"
                        ),
                    });
                }
            }
        }
    }
    diags
}

/// [`verify_plan`] as a hard gate: `Err(ExecError::Verify)` when any
/// error-severity diagnostic fires (warnings pass).
pub fn check_plan(plan: &PhysPlan, db: Option<&Database>) -> crate::error::ExecResult<()> {
    let diags = verify_plan(plan, db);
    if error_count(&diags) > 0 {
        return Err(crate::error::ExecError::Verify(render_diagnostics(&diags)));
    }
    Ok(())
}

/// [`verify_fixpoint`] as a hard gate.
pub fn check_fixpoint(plan: &FixpointPlan, db: Option<&Database>) -> crate::error::ExecResult<()> {
    let diags = verify_fixpoint(plan, db);
    if error_count(&diags) > 0 {
        return Err(crate::error::ExecError::Verify(render_diagnostics(&diags)));
    }
    Ok(())
}

/// The fixpoint scope a rule plan is verified under.
struct FixScope<'a> {
    schemas: &'a HashMap<String, Schema>,
    /// predicate → stratum index.
    owner: &'a HashMap<&'a str, usize>,
    stratum: usize,
    /// Inside a delta variant (`ScanDelta` expected exactly once)?
    in_delta: bool,
}

struct Walker<'a> {
    db: Option<&'a Database>,
    fix: Option<FixScope<'a>>,
    diags: Vec<Diagnostic>,
    /// First definition of each `Shared` id (the executor caches this
    /// one; back-references must match it).
    shared: HashMap<u32, (&'a PhysPlan, String)>,
    /// Ids of `Shared` nodes currently being walked (cycle detection).
    shared_stack: Vec<u32>,
    /// `ScanDelta` nodes seen (delta variants need exactly one).
    delta_scans: usize,
}

fn label(plan: &PhysPlan) -> String {
    match plan {
        PhysPlan::Scan { rel, .. } => format!("Scan {rel}"),
        PhysPlan::ScanIdb { rel, .. } => format!("ScanIdb {rel}"),
        PhysPlan::ScanDelta { rel, .. } => format!("ScanDelta {rel}"),
        PhysPlan::Values { .. } => "Values".into(),
        PhysPlan::Filter { .. } => "Filter".into(),
        PhysPlan::Project { .. } => "Project".into(),
        PhysPlan::HashJoin { .. } => "HashJoin".into(),
        PhysPlan::SemiJoin { .. } => "SemiJoin".into(),
        PhysPlan::AntiJoin { .. } => "AntiJoin".into(),
        PhysPlan::Union { .. } => "Union".into(),
        PhysPlan::Diff { .. } => "Diff".into(),
        PhysPlan::Dedup { .. } => "Dedup".into(),
        PhysPlan::Shared { id, .. } => format!("Shared #{id}"),
    }
}

fn seg(path: &str, label: &str) -> String {
    if path.is_empty() {
        label.to_string()
    } else {
        format!("{path} > {label}")
    }
}

impl<'a> Walker<'a> {
    fn new(db: Option<&'a Database>, fix: Option<FixScope<'a>>) -> Self {
        Walker {
            db,
            fix,
            diags: Vec::new(),
            shared: HashMap::new(),
            shared_stack: Vec::new(),
            delta_scans: 0,
        }
    }

    fn error(&mut self, code: &'static str, at: &str, message: String) {
        self.diags.push(Diagnostic {
            severity: Severity::Error,
            code,
            at: at.to_string(),
            message,
        });
    }

    /// Flags a **definite** column-type conflict: `declared` and
    /// `actual` have no common type under [`DataType::unify`]. `Any`
    /// unifies with everything, so untyped (IDB) schemas never report.
    fn check_unify(&mut self, declared: DataType, actual: DataType, at: &str, ctx: &str) {
        if declared.unify(actual).is_none() {
            self.error(
                "col-type",
                at,
                format!("{ctx}: declared type `{declared}` and delivered type `{actual}` have no common type"),
            );
        }
    }

    /// The pass-through type check shared by `Filter`/`Dedup`/semi-/
    /// anti-joins and `Union`/`Diff` outputs: the node's declared
    /// column types against the types one input delivers.
    fn check_passthrough_types(&mut self, out: &Schema, input: &Schema, at: &str) {
        for (j, (o, i)) in out.attrs().iter().zip(input.attrs()).enumerate() {
            self.check_unify(o.ty, i.ty, at, &format!("pass-through column #{j} (`{}`)", o.name));
        }
    }

    /// Every attribute a predicate references must resolve in `schema`
    /// — this is exactly the lookup `compile_operand` performs at run
    /// time, hoisted to plan time.
    fn check_pred(&mut self, pred: &Predicate, schema: &Schema, at: &str, code: &'static str) {
        let mut seen = HashSet::new();
        for a in pred.attrs() {
            if schema.index_of(a).is_none() && seen.insert(a.to_string()) {
                self.error(
                    code,
                    at,
                    format!(
                        "predicate references attribute `{a}` which is not in the input schema {schema}"
                    ),
                );
            }
        }
    }

    /// `neg` is true under the right side of an `AntiJoin` — the one
    /// place stratified negation demands strictly lower strata.
    fn walk(&mut self, plan: &'a PhysPlan, path: &str, neg: bool) {
        let at = seg(path, &label(plan));
        match plan {
            PhysPlan::Scan { rel, schema } => {
                let shadows =
                    self.fix.as_ref().is_some_and(|f| f.schemas.contains_key(rel));
                if shadows {
                    self.error(
                        "scan-shadows-idb",
                        &at,
                        format!("EDB scan of `{rel}` shadows an IDB predicate of the same fixpoint"),
                    );
                }
                let db = self.db;
                if let Some(db) = db {
                    match db.schema(rel) {
                        Ok(s) if s.arity() != schema.arity() => {
                            let (da, sa) = (s.arity(), schema.arity());
                            self.error(
                                "scan-arity",
                                &at,
                                format!(
                                    "relation `{rel}` has arity {da} in the database but is scanned at arity {sa}"
                                ),
                            );
                        }
                        Ok(_) => {}
                        Err(_) => self.error(
                            "unknown-relation",
                            &at,
                            format!("relation `{rel}` is not in the database"),
                        ),
                    }
                }
            }
            PhysPlan::ScanIdb { rel, schema } => {
                self.check_fix_scan(rel, schema, &at, neg, false);
            }
            PhysPlan::ScanDelta { rel, schema } => {
                self.delta_scans += 1;
                self.check_fix_scan(rel, schema, &at, neg, true);
            }
            PhysPlan::Values { rows, schema } => {
                for (i, row) in rows.iter().enumerate() {
                    if row.values().len() != schema.arity() {
                        self.error(
                            "values-arity",
                            &at,
                            format!(
                                "row #{i} has {} values but the schema {schema} has arity {}",
                                row.values().len(),
                                schema.arity()
                            ),
                        );
                        break;
                    }
                    for (a, v) in schema.attrs().iter().zip(row.values()) {
                        self.check_unify(
                            a.ty,
                            v.data_type(),
                            &at,
                            &format!("row #{i}, column `{}`", a.name),
                        );
                    }
                }
            }
            PhysPlan::Filter { pred, input, schema } => {
                let in_arity = input.schema().arity();
                if schema.arity() != in_arity {
                    self.error(
                        "schema-arity",
                        &at,
                        format!(
                            "Filter keeps tuples unchanged, but its schema has arity {} and the input arity {in_arity}",
                            schema.arity()
                        ),
                    );
                }
                self.check_pred(pred, input.schema(), &at, "filter-pred");
                self.check_passthrough_types(schema, input.schema(), &at);
                self.walk(input, &at, neg);
            }
            PhysPlan::Project { cols, input, schema } => {
                if cols.len() != schema.arity() {
                    self.error(
                        "schema-arity",
                        &at,
                        format!(
                            "Project emits {} column(s) but its schema {schema} has arity {}",
                            cols.len(),
                            schema.arity()
                        ),
                    );
                }
                let in_arity = input.schema().arity();
                for (j, c) in cols.iter().enumerate() {
                    if let OutputCol::Pos(i) = c {
                        if *i >= in_arity {
                            self.error(
                                "col-bounds",
                                &at,
                                format!(
                                    "output column #{j} reads input position {i}, but the input arity is {in_arity}"
                                ),
                            );
                        }
                    }
                    if let Some(a) = schema.attrs().get(j) {
                        // `data_type` yields `Any` for out-of-bounds
                        // positions, already flagged above.
                        self.check_unify(
                            a.ty,
                            c.data_type(input.schema()),
                            &at,
                            &format!("output column #{j} (`{}`)", a.name),
                        );
                    }
                }
                self.walk(input, &at, neg);
            }
            PhysPlan::HashJoin { left, right, left_keys, right_keys, right_keep, post, schema } => {
                let la = left.schema().arity();
                let ra = right.schema().arity();
                if left_keys.len() != right_keys.len() {
                    self.error(
                        "key-arity",
                        &at,
                        format!(
                            "{} left key(s) but {} right key(s) — hash keys must pair up",
                            left_keys.len(),
                            right_keys.len()
                        ),
                    );
                }
                self.check_keys(left_keys, la, "left", &at);
                self.check_keys(right_keys, ra, "right", &at);
                for &k in right_keep {
                    if k >= ra {
                        self.error(
                            "keep-bounds",
                            &at,
                            format!("kept right column {k} is out of bounds (right arity {ra})"),
                        );
                    }
                }
                if schema.arity() != la + right_keep.len() {
                    self.error(
                        "schema-arity",
                        &at,
                        format!(
                            "join schema has arity {} but left arity {la} + {} kept right column(s) = {}",
                            schema.arity(),
                            right_keep.len(),
                            la + right_keep.len()
                        ),
                    );
                }
                for (i, (&lk, &rk)) in left_keys.iter().zip(right_keys.iter()).enumerate() {
                    if let (Some(la), Some(ra)) =
                        (left.schema().attrs().get(lk), right.schema().attrs().get(rk))
                    {
                        self.check_unify(
                            la.ty,
                            ra.ty,
                            &at,
                            &format!("join-key pair #{i} (`{}` = `{}`)", la.name, ra.name),
                        );
                    }
                }
                // Output columns are left ++ right[keep], in order.
                let delivered = left
                    .schema()
                    .attrs()
                    .iter()
                    .chain(right_keep.iter().filter_map(|&k| right.schema().attrs().get(k)));
                for (j, (o, a)) in schema.attrs().iter().zip(delivered).enumerate() {
                    self.check_unify(o.ty, a.ty, &at, &format!("output column #{j} (`{}`)", o.name));
                }
                if let Some(p) = post {
                    // The residual predicate runs over left ++ right[keep]
                    // — the fused schema the executor assembles.
                    let mut attrs = left.schema().attrs().to_vec();
                    for &k in right_keep {
                        if let Some(a) = right.schema().attrs().get(k) {
                            attrs.push(a.clone());
                        }
                    }
                    match Schema::new(attrs) {
                        Ok(s) => self.check_pred(p, &s, &at, "post-pred"),
                        Err(e) => self.error(
                            "post-pred",
                            &at,
                            format!("the residual-predicate schema cannot be formed: {e}"),
                        ),
                    }
                }
                self.walk(left, &format!("{at}.left"), neg);
                self.walk(right, &format!("{at}.right"), neg);
            }
            PhysPlan::SemiJoin { left, right, left_keys, right_keys, schema }
            | PhysPlan::AntiJoin { left, right, left_keys, right_keys, schema } => {
                let anti = matches!(plan, PhysPlan::AntiJoin { .. });
                let la = left.schema().arity();
                let ra = right.schema().arity();
                if left_keys.len() != right_keys.len() {
                    self.error(
                        "key-arity",
                        &at,
                        format!(
                            "{} left key(s) but {} right key(s) — hash keys must pair up",
                            left_keys.len(),
                            right_keys.len()
                        ),
                    );
                }
                self.check_keys(left_keys, la, "left", &at);
                self.check_keys(right_keys, ra, "right", &at);
                if schema.arity() != la {
                    self.error(
                        "schema-arity",
                        &at,
                        format!(
                            "semi-/anti-join passes left tuples through, but its schema has arity {} and the left input {la}",
                            schema.arity()
                        ),
                    );
                }
                for (i, (&lk, &rk)) in left_keys.iter().zip(right_keys.iter()).enumerate() {
                    if let (Some(lattr), Some(rattr)) =
                        (left.schema().attrs().get(lk), right.schema().attrs().get(rk))
                    {
                        self.check_unify(
                            lattr.ty,
                            rattr.ty,
                            &at,
                            &format!("join-key pair #{i} (`{}` = `{}`)", lattr.name, rattr.name),
                        );
                    }
                }
                self.check_passthrough_types(schema, left.schema(), &at);
                self.walk(left, &format!("{at}.left"), neg);
                self.walk(right, &format!("{at}.right"), neg || anti);
            }
            PhysPlan::Union { left, right, schema } | PhysPlan::Diff { left, right, schema } => {
                let la = left.schema().arity();
                let ra = right.schema().arity();
                if la != ra {
                    self.error(
                        "arity-mismatch",
                        &at,
                        format!("left input has arity {la} but right input arity {ra}"),
                    );
                }
                if schema.arity() != la {
                    self.error(
                        "schema-arity",
                        &at,
                        format!("node schema has arity {} but the inputs arity {la}", schema.arity()),
                    );
                }
                // Both inputs feed the same output columns: each pair
                // must share a common type, and the declared output
                // type must accept what either side delivers.
                for (j, (l, r)) in
                    left.schema().attrs().iter().zip(right.schema().attrs()).enumerate()
                {
                    self.check_unify(
                        l.ty,
                        r.ty,
                        &at,
                        &format!("column #{j} (`{}` vs `{}`)", l.name, r.name),
                    );
                }
                self.check_passthrough_types(schema, left.schema(), &at);
                self.check_passthrough_types(schema, right.schema(), &at);
                self.walk(left, &format!("{at}.left"), neg);
                self.walk(right, &format!("{at}.right"), neg);
            }
            PhysPlan::Dedup { input, schema } => {
                let in_arity = input.schema().arity();
                if schema.arity() != in_arity {
                    self.error(
                        "schema-arity",
                        &at,
                        format!(
                            "Dedup keeps tuples unchanged, but its schema has arity {} and the input arity {in_arity}",
                            schema.arity()
                        ),
                    );
                }
                self.check_passthrough_types(schema, input.schema(), &at);
                self.walk(input, &at, neg);
            }
            PhysPlan::Shared { id, input, schema } => {
                if self.shared_stack.contains(id) {
                    self.error(
                        "shared-cycle",
                        &at,
                        format!(
                            "Shared #{id} occurs inside its own definition — the cache would serve a partial result"
                        ),
                    );
                    return;
                }
                if schema.arity() != input.schema().arity() {
                    let (sa, ia) = (schema.arity(), input.schema().arity());
                    self.error(
                        "schema-arity",
                        &at,
                        format!("Shared #{id} has schema arity {sa} but its sub-plan arity {ia}"),
                    );
                }
                if contains_fix_scan(input) {
                    self.error(
                        "shared-fixpoint-scan",
                        &at,
                        format!(
                            "Shared #{id} caches its input for the whole run, but the sub-plan reads \
                             fixpoint state that changes every round — it would serve stale tuples"
                        ),
                    );
                }
                let prior = self.shared.get(id).map(|(def, def_at)| (*def, def_at.clone()));
                match prior {
                    Some((def, def_at)) => {
                        // The executor evaluates the first occurrence and
                        // replays its cached batch for every later one —
                        // identical copies were already walked there.
                        if def != input.as_ref() {
                            self.error(
                                "shared-inconsistent",
                                &at,
                                format!(
                                    "Shared #{id} disagrees with its definition at `{def_at}` — \
                                     all back-references must carry the same sub-plan"
                                ),
                            );
                        }
                    }
                    None => {
                        self.shared.insert(*id, (input.as_ref(), at.clone()));
                        self.shared_stack.push(*id);
                        self.walk(input, &at, neg);
                        self.shared_stack.pop();
                    }
                }
            }
        }
    }

    fn check_keys(&mut self, keys: &[usize], arity: usize, side: &str, at: &str) {
        for &k in keys {
            if k >= arity {
                self.error(
                    "key-bounds",
                    at,
                    format!("{side} key {k} is out of bounds for the {side} input (arity {arity})"),
                );
            }
        }
    }

    fn check_fix_scan(&mut self, rel: &str, schema: &Schema, at: &str, neg: bool, is_delta: bool) {
        let kind = if is_delta { "ScanDelta" } else { "ScanIdb" };
        let Some(f) = &self.fix else {
            self.error(
                "fixpoint-scan",
                at,
                format!(
                    "`{kind} {rel}` outside a fixpoint plan — IDB state only exists during semi-naive evaluation"
                ),
            );
            return;
        };
        // Copy the scope out so diagnostics can be pushed below.
        let (schemas, owners, stratum, in_delta) = (f.schemas, f.owner, f.stratum, f.in_delta);
        match schemas.get(rel) {
            None => {
                self.error(
                    "unknown-predicate",
                    at,
                    format!("IDB predicate `{rel}` has no declared schema in this fixpoint"),
                );
            }
            Some(s) if s.arity() != schema.arity() => {
                let (da, sa) = (s.arity(), schema.arity());
                self.error(
                    "idb-arity",
                    at,
                    format!(
                        "IDB predicate `{rel}` is declared with arity {da} but scanned at arity {sa}"
                    ),
                );
            }
            Some(_) => {}
        }
        let owner = owners.get(rel).copied();
        if let Some(o) = owner {
            if o > stratum {
                self.error(
                    "stratum-order",
                    at,
                    format!(
                        "stratum {stratum} reads predicate `{rel}` of the later stratum {o} — strata evaluate bottom-up"
                    ),
                );
            } else if neg && o == stratum {
                self.error(
                    "negation-stratum",
                    at,
                    format!(
                        "negation against same-stratum predicate `{rel}` — stratified negation requires a strictly lower stratum"
                    ),
                );
            }
        }
        if is_delta {
            if !in_delta {
                self.error(
                    "delta-form",
                    at,
                    format!(
                        "`ScanDelta {rel}` in a non-delta plan — round-0 `full` plans must read accumulated IDB state"
                    ),
                );
            }
            if owner.is_some() && owner != Some(stratum) {
                self.error(
                    "delta-scope",
                    at,
                    format!(
                        "delta scan of `{rel}` which lives in another stratum — deltas only exist for same-stratum predicates"
                    ),
                );
            }
        }
        if !self.shared_stack.is_empty() {
            self.error(
                "shared-fixpoint-scan",
                at,
                format!("`{kind} {rel}` under a `Shared` cache — fixpoint state changes every round"),
            );
        }
    }
}

/// Does any node of this sub-plan read fixpoint state?
fn contains_fix_scan(plan: &PhysPlan) -> bool {
    match plan {
        PhysPlan::ScanIdb { .. } | PhysPlan::ScanDelta { .. } => true,
        PhysPlan::Scan { .. } | PhysPlan::Values { .. } => false,
        PhysPlan::Filter { input, .. }
        | PhysPlan::Project { input, .. }
        | PhysPlan::Dedup { input, .. }
        | PhysPlan::Shared { input, .. } => contains_fix_scan(input),
        PhysPlan::HashJoin { left, right, .. }
        | PhysPlan::SemiJoin { left, right, .. }
        | PhysPlan::AntiJoin { left, right, .. }
        | PhysPlan::Union { left, right, .. }
        | PhysPlan::Diff { left, right, .. } => contains_fix_scan(left) || contains_fix_scan(right),
    }
}

/// Counts `ScanIdb`/`ScanDelta` occurrences of same-stratum predicates
/// — the number of delta variants semi-naive evaluation must emit.
fn count_same_stratum_scans(
    plan: &PhysPlan,
    owner: &HashMap<&str, usize>,
    stratum: usize,
) -> usize {
    match plan {
        PhysPlan::ScanIdb { rel, .. } | PhysPlan::ScanDelta { rel, .. } => {
            usize::from(owner.get(rel.as_str()) == Some(&stratum))
        }
        PhysPlan::Scan { .. } | PhysPlan::Values { .. } => 0,
        PhysPlan::Filter { input, .. }
        | PhysPlan::Project { input, .. }
        | PhysPlan::Dedup { input, .. }
        | PhysPlan::Shared { input, .. } => count_same_stratum_scans(input, owner, stratum),
        PhysPlan::HashJoin { left, right, .. }
        | PhysPlan::SemiJoin { left, right, .. }
        | PhysPlan::AntiJoin { left, right, .. }
        | PhysPlan::Union { left, right, .. }
        | PhysPlan::Diff { left, right, .. } => {
            count_same_stratum_scans(left, owner, stratum)
                + count_same_stratum_scans(right, owner, stratum)
        }
    }
}

// ---------------------------------------------------------------------------
// Datalog program analyzer
// ---------------------------------------------------------------------------

/// Static safety analysis of a Datalog program: range restriction and
/// stratifiability as errors, plus lints (unused predicates, duplicate
/// rules, always-false bodies, cartesian products) as warnings.
///
/// Unlike the planner's fail-fast checks, the analyzer reports *every*
/// finding, with rule spans, so a whole program can be fixed in one
/// pass.
pub fn analyze_program(program: &Program, db: &Database) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let idb: Vec<&str> = program.idb_predicates();
    // First head occurrence fixes each predicate's arity.
    let mut arity: HashMap<&str, usize> = HashMap::new();
    for r in &program.rules {
        arity.entry(r.head.rel.as_str()).or_insert(r.head.terms.len());
    }

    for (i, r) in program.rules.iter().enumerate() {
        let at = format!("rule {i}");
        analyze_rule(r, i, &at, program, db, &arity, &mut diags);
    }

    // Stratifiability — and, unlike the planner's fail-fast error, the
    // offending cycle spelled out.
    if stratify::stratify(program).is_err() {
        let cycle =
            negation_cycle(program).unwrap_or_else(|| "(cycle not isolated)".to_string());
        diags.push(Diagnostic {
            severity: Severity::Error,
            code: "unstratifiable",
            at: "program".into(),
            message: format!("the program is not stratifiable; negation lies on the cycle {cycle}"),
        });
    }

    if !idb.contains(&program.query.as_str()) {
        diags.push(Diagnostic {
            severity: Severity::Error,
            code: "query-missing",
            at: "program".into(),
            message: format!("query predicate `{}` is not the head of any rule", program.query),
        });
    } else {
        // Reachability from the query over the rule dependency graph.
        let mut reachable: HashSet<&str> = HashSet::new();
        let mut stack = vec![program.query.as_str()];
        while let Some(p) = stack.pop() {
            if !reachable.insert(p) {
                continue;
            }
            for r in program.rules.iter().filter(|r| r.head.rel == p) {
                for l in &r.body {
                    if let Literal::Pos(a) | Literal::Neg(a) = l {
                        if idb.contains(&a.rel.as_str()) {
                            stack.push(&a.rel);
                        }
                    }
                }
            }
        }
        for p in &idb {
            // Magic/supplementary predicates are generated demand
            // filters ([`crate::opt::magic_transform`]) — a seed-only
            // magic predicate is doing its job, not dangling.
            if p.starts_with(crate::opt::MAGIC_PREFIX) {
                continue;
            }
            if !reachable.contains(p) {
                diags.push(Diagnostic {
                    severity: Severity::Warning,
                    code: "unused-predicate",
                    at: format!("predicate `{p}`"),
                    message: format!(
                        "never used, directly or transitively, in deriving the query `{}`",
                        program.query
                    ),
                });
            }
        }
    }
    diags
}

fn analyze_rule(
    r: &Rule,
    i: usize,
    at: &str,
    program: &Program,
    db: &Database,
    arity: &HashMap<&str, usize>,
    diags: &mut Vec<Diagnostic>,
) {
    // Predicate existence and arity agreement (head + body atoms).
    if arity.get(r.head.rel.as_str()) != Some(&r.head.terms.len()) {
        diags.push(Diagnostic {
            severity: Severity::Error,
            code: "arity-mismatch",
            at: at.into(),
            message: format!(
                "head `{}` has {} term(s) but `{}` was first defined with arity {}",
                r.head,
                r.head.terms.len(),
                r.head.rel,
                arity.get(r.head.rel.as_str()).copied().unwrap_or(0)
            ),
        });
    }
    for l in &r.body {
        let (Literal::Pos(a) | Literal::Neg(a)) = l else { continue };
        if let Some(&expect) = arity.get(a.rel.as_str()) {
            if a.terms.len() != expect {
                diags.push(Diagnostic {
                    severity: Severity::Error,
                    code: "arity-mismatch",
                    at: at.into(),
                    message: format!(
                        "atom `{a}` has {} term(s) but `{}` has arity {expect}",
                        a.terms.len(),
                        a.rel
                    ),
                });
            }
        } else {
            match db.schema(&a.rel) {
                Ok(s) if s.arity() != a.terms.len() => diags.push(Diagnostic {
                    severity: Severity::Error,
                    code: "arity-mismatch",
                    at: at.into(),
                    message: format!(
                        "atom `{a}` has {} term(s) but relation `{}` has arity {}",
                        a.terms.len(),
                        a.rel,
                        s.arity()
                    ),
                }),
                Ok(_) => {}
                Err(_) => diags.push(Diagnostic {
                    severity: Severity::Error,
                    code: "unknown-predicate",
                    at: at.into(),
                    message: format!(
                        "`{}` in atom `{a}` is neither an IDB predicate nor a database relation",
                        a.rel
                    ),
                }),
            }
        }
    }

    // Range restriction: every head, negated and compared variable must
    // be bound by a positive body atom. The planner fails on the first
    // violation — here every one is reported.
    let positive: HashSet<&str> = r
        .body
        .iter()
        .filter_map(|l| match l {
            Literal::Pos(a) => Some(a.vars()),
            _ => None,
        })
        .flatten()
        .collect();
    let mut flagged: HashSet<&str> = HashSet::new();
    for v in r.head.vars() {
        if !positive.contains(v) && flagged.insert(v) {
            diags.push(Diagnostic {
                severity: Severity::Error,
                code: "range-restriction",
                at: at.into(),
                message: format!(
                    "variable `{v}` in the head of `{r}` is not bound by a positive body atom"
                ),
            });
        }
    }
    for l in &r.body {
        match l {
            Literal::Neg(a) => {
                for v in a.vars() {
                    if !positive.contains(v) && flagged.insert(v) {
                        diags.push(Diagnostic {
                            severity: Severity::Error,
                            code: "range-restriction",
                            at: at.into(),
                            message: format!(
                                "variable `{v}` in negated atom `not {a}` is not bound by a positive body atom"
                            ),
                        });
                    }
                }
            }
            Literal::Cmp { left, right, .. } => {
                for t in [left, right] {
                    if let Some(v) = t.as_var() {
                        if !positive.contains(v) && flagged.insert(v) {
                            diags.push(Diagnostic {
                                severity: Severity::Error,
                                code: "range-restriction",
                                at: at.into(),
                                message: format!(
                                    "variable `{v}` in comparison `{l}` is not bound by a positive body atom"
                                ),
                            });
                        }
                    }
                }
            }
            Literal::Pos(_) => {}
        }
    }

    // Always-false comparisons make the whole body empty.
    for l in &r.body {
        if let Literal::Cmp { left, op, right } = l {
            let always_false = match (left, right) {
                (Term::Const(a), Term::Const(b)) => !op.apply(a, b),
                (Term::Var(a), Term::Var(b)) if a == b => {
                    use relviz_model::CmpOp::{Gt, Lt, Neq};
                    matches!(op, Lt | Gt | Neq)
                }
                _ => false,
            };
            if always_false {
                diags.push(Diagnostic {
                    severity: Severity::Warning,
                    code: "always-empty",
                    at: at.into(),
                    message: format!("comparison `{l}` is always false — the rule can never fire"),
                });
            }
        }
    }

    // Cartesian products: a positive atom that shares no variable with
    // the atoms before it multiplies instead of joining.
    let mut bound: HashSet<&str> = HashSet::new();
    for l in &r.body {
        let Literal::Pos(a) = l else { continue };
        let vars: Vec<&str> = a.vars().collect();
        if !bound.is_empty() && !vars.is_empty() && !vars.iter().any(|v| bound.contains(v)) {
            diags.push(Diagnostic {
                severity: Severity::Warning,
                code: "cartesian-product",
                at: at.into(),
                message: format!(
                    "atom `{a}` shares no variable with the preceding body atoms — this join is a cross product"
                ),
            });
        }
        bound.extend(vars);
    }

    // A rule textually identical to an earlier one derives nothing new.
    // Magic-rule heads are exempt: the demand transformation may emit
    // the same guard from several call sites, and flagging generated
    // rules would make every transformed program lint-dirty.
    if !r.head.rel.starts_with(crate::opt::MAGIC_PREFIX)
        && program.rules.iter().take(i).any(|p| p == r)
    {
        diags.push(Diagnostic {
            severity: Severity::Warning,
            code: "dead-rule",
            at: at.into(),
            message: format!("`{r}` duplicates an earlier rule — it can never derive anything new"),
        });
    }
}

/// Finds a dependency cycle through a negative edge — the witness that
/// a program is unstratifiable. Returns e.g.
/// `` `p` -not-> `q` -> `p` ``.
fn negation_cycle(program: &Program) -> Option<String> {
    let idb: HashSet<&str> = program.idb_predicates().into_iter().collect();
    // Edges head -> body predicate, in rule order (deterministic).
    let mut edges: Vec<(&str, &str, bool)> = Vec::new();
    for r in &program.rules {
        for l in &r.body {
            let (a, negv) = match l {
                Literal::Pos(a) => (a, false),
                Literal::Neg(a) => (a, true),
                Literal::Cmp { .. } => continue,
            };
            if idb.contains(a.rel.as_str()) {
                edges.push((&r.head.rel, &a.rel, negv));
            }
        }
    }
    for &(u, v, negv) in &edges {
        if !negv {
            continue;
        }
        // BFS from v back to u over all edges (any sign).
        let mut prev: HashMap<&str, &str> = HashMap::new();
        let mut queue = std::collections::VecDeque::from([v]);
        let mut seen: HashSet<&str> = HashSet::from([v]);
        let mut found = v == u;
        while let Some(x) = queue.pop_front() {
            if found {
                break;
            }
            for &(a, b, _) in &edges {
                if a == x && seen.insert(b) {
                    prev.insert(b, a);
                    if b == u {
                        found = true;
                        break;
                    }
                    queue.push_back(b);
                }
            }
        }
        if found {
            // Reconstruct v -> ... -> u, then print u -not-> v -> ... -> u.
            let mut path = vec![u];
            let mut x = u;
            while x != v {
                x = prev.get(x)?;
                path.push(x);
            }
            path.reverse(); // v, ..., u
            let mut out = format!("`{u}` -not-> `{v}`");
            for n in path.iter().skip(1) {
                out.push_str(&format!(" -> `{n}`"));
            }
            return Some(out);
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Debug-build planner hooks
// ---------------------------------------------------------------------------

/// Debug-build hook the planners call on every plan they emit: panics
/// with the rendered diagnostics when verification fails, so every
/// existing fuzzer doubles as a verifier fuzzer. No-op in release.
#[cfg(debug_assertions)]
pub(crate) fn debug_verify_plan(plan: &PhysPlan, db: &Database) {
    let diags = verify_plan(plan, Some(db));
    if error_count(&diags) > 0 {
        panic!("planner emitted an unverifiable plan (engine bug):\n{}", render_diagnostics(&diags));
    }
}

#[cfg(not(debug_assertions))]
#[inline(always)]
pub(crate) fn debug_verify_plan(_plan: &PhysPlan, _db: &Database) {}

/// [`debug_verify_plan`] for fixpoint plans.
#[cfg(debug_assertions)]
pub(crate) fn debug_verify_fixpoint(plan: &FixpointPlan, db: &Database) {
    let diags = verify_fixpoint(plan, Some(db));
    if error_count(&diags) > 0 {
        panic!("planner emitted an unverifiable fixpoint plan (engine bug):\n{}", render_diagnostics(&diags));
    }
}

#[cfg(not(debug_assertions))]
#[inline(always)]
pub(crate) fn debug_verify_fixpoint(_plan: &FixpointPlan, _db: &Database) {}

// ---------------------------------------------------------------------------
// Verified EXPLAIN
// ---------------------------------------------------------------------------

/// The `✓ verified` / diagnostic footer appended to verified EXPLAINs.
pub fn verification_footer(node_count: usize, diags: &[Diagnostic]) -> String {
    if diags.is_empty() {
        return format!("✓ verified — {node_count} nodes, all invariants hold\n");
    }
    let errs = error_count(diags);
    let warns = diags.len() - errs;
    let mut out = format!("✗ verification: {errs} error(s), {warns} warning(s)\n");
    for d in diags {
        out.push_str("  ");
        out.push_str(&d.to_string());
        out.push('\n');
    }
    out
}

/// [`crate::explain`] plus the verification footer.
pub fn explain_verified(plan: &PhysPlan) -> String {
    let mut out = crate::plan::explain(plan);
    out.push_str(&verification_footer(plan.node_count(), &verify_plan(plan, None)));
    out
}

/// [`crate::explain_datalog`] plus the verification footer.
pub fn explain_datalog_verified(plan: &FixpointPlan) -> String {
    let mut out = crate::fixpoint::explain_datalog(plan);
    out.push_str(&verification_footer(plan.node_count(), &verify_fixpoint(plan, None)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opt::OptConfig;
    use relviz_datalog::ast::Atom;
    use relviz_model::catalog::sailors_sample;
    use relviz_model::{CmpOp, DataType, Tuple, Value};
    use relviz_ra::Operand;

    fn s2() -> Schema {
        Schema::of(&[("a", DataType::Int), ("b", DataType::Int)])
    }

    fn scan2() -> PhysPlan {
        PhysPlan::Scan { rel: "R".into(), schema: s2() }
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    fn var(v: &str) -> Term {
        Term::Var(v.into())
    }

    #[test]
    fn a_plain_scan_verifies_clean() {
        assert!(verify_plan(&scan2(), None).is_empty());
    }

    #[test]
    fn project_out_of_bounds_is_flagged_with_the_position() {
        let p = PhysPlan::Project {
            cols: vec![OutputCol::Pos(5)],
            schema: Schema::of(&[("a", DataType::Int)]),
            input: Box::new(scan2()),
        };
        let diags = verify_plan(&p, None);
        assert_eq!(codes(&diags), vec!["col-bounds"]);
        assert!(diags[0].message.contains("position 5"), "{}", diags[0]);
        assert!(diags[0].message.contains("arity is 2"), "{}", diags[0]);
    }

    #[test]
    fn filter_predicate_must_resolve_in_the_input_schema() {
        let p = PhysPlan::Filter {
            pred: Predicate::cmp(Operand::attr("zzz"), CmpOp::Gt, Operand::val(3)),
            schema: s2(),
            input: Box::new(scan2()),
        };
        let diags = verify_plan(&p, None);
        assert_eq!(codes(&diags), vec!["filter-pred"]);
        assert!(diags[0].message.contains("`zzz`"), "{}", diags[0]);
    }

    #[test]
    fn union_arity_disagreement_is_flagged() {
        let narrow = PhysPlan::Project {
            cols: vec![OutputCol::Pos(0)],
            schema: Schema::of(&[("a", DataType::Int)]),
            input: Box::new(scan2()),
        };
        let u = PhysPlan::Union { schema: s2(), left: Box::new(scan2()), right: Box::new(narrow) };
        let diags = verify_plan(&u, None);
        assert_eq!(codes(&diags), vec!["arity-mismatch"]);
    }

    #[test]
    fn hash_join_key_lists_must_pair_up_and_stay_in_bounds() {
        let j = PhysPlan::HashJoin {
            left: Box::new(scan2()),
            right: Box::new(scan2()),
            left_keys: vec![0, 9],
            right_keys: vec![1],
            right_keep: vec![7],
            post: None,
            schema: Schema::of(&[
                ("a", DataType::Int),
                ("b", DataType::Int),
                ("c", DataType::Int),
            ]),
        };
        let diags = verify_plan(&j, None);
        let cs = codes(&diags);
        assert!(cs.contains(&"key-arity"), "{cs:?}");
        assert!(cs.contains(&"key-bounds"), "{cs:?}");
        assert!(cs.contains(&"keep-bounds"), "{cs:?}");
    }

    /// The columnar type contract: definite type conflicts — a `Str`
    /// constant under an `Int` declaration, an `Int`/`Str` join key
    /// pair, an `Int`/`Str` union — are errors; `Any` and `Int`/`Float`
    /// widening unify fine and stay quiet.
    #[test]
    fn disjoint_column_types_are_flagged() {
        // Project: Str constant into an Int-declared output column.
        let p = PhysPlan::Project {
            cols: vec![OutputCol::Pos(0), OutputCol::Const(Value::str("tag"))],
            schema: s2(),
            input: Box::new(scan2()),
        };
        assert_eq!(codes(&verify_plan(&p, None)), vec!["col-type"]);

        // Join keys: Int column = Str column.
        let str_scan = PhysPlan::Scan {
            rel: "S".into(),
            schema: Schema::of(&[("s", DataType::Str), ("t", DataType::Str)]),
        };
        let j = PhysPlan::SemiJoin {
            left: Box::new(scan2()),
            right: Box::new(str_scan.clone()),
            left_keys: vec![0],
            right_keys: vec![0],
            schema: s2(),
        };
        assert_eq!(codes(&verify_plan(&j, None)), vec!["col-type"]);

        // Union: Int and Str columns have no common type.
        let u = PhysPlan::Union {
            schema: s2(),
            left: Box::new(scan2()),
            right: Box::new(str_scan),
        };
        let diags = verify_plan(&u, None);
        assert!(codes(&diags).iter().all(|c| *c == "col-type"), "{}", render_diagnostics(&diags));
        assert!(!diags.is_empty());

        // Quiet cases: Any accepts anything; Int widens into Float.
        let any_schema = Schema::of(&[("a", DataType::Any), ("b", DataType::Any)]);
        let widen = PhysPlan::Union {
            schema: Schema::of(&[("a", DataType::Float), ("b", DataType::Float)]),
            left: Box::new(PhysPlan::Scan {
                rel: "F".into(),
                schema: Schema::of(&[("a", DataType::Float), ("b", DataType::Float)]),
            }),
            right: Box::new(scan2()),
        };
        assert!(verify_plan(&widen, None).is_empty());
        let v = PhysPlan::Values {
            rows: vec![Tuple::new(vec![Value::str("x"), Value::Int(1)])],
            schema: any_schema,
        };
        assert!(verify_plan(&v, None).is_empty());
    }

    #[test]
    fn values_cells_must_fit_the_declared_types() {
        let p = PhysPlan::Values {
            rows: vec![Tuple::new(vec![Value::Int(1), Value::str("oops")])],
            schema: s2(),
        };
        assert_eq!(codes(&verify_plan(&p, None)), vec!["col-type"]);
    }

    #[test]
    fn inconsistent_shared_back_references_are_rejected() {
        let other = PhysPlan::Scan { rel: "S".into(), schema: s2() };
        let j = PhysPlan::Union {
            schema: s2(),
            left: Box::new(PhysPlan::Shared { id: 0, schema: s2(), input: Box::new(scan2()) }),
            right: Box::new(PhysPlan::Shared { id: 0, schema: s2(), input: Box::new(other) }),
        };
        let diags = verify_plan(&j, None);
        assert_eq!(codes(&diags), vec!["shared-inconsistent"]);
        assert!(diags[0].at.contains("right"), "{}", diags[0].at);
    }

    #[test]
    fn shared_nested_in_its_own_definition_is_a_cycle() {
        let inner = PhysPlan::Shared { id: 0, schema: s2(), input: Box::new(scan2()) };
        let outer = PhysPlan::Shared {
            id: 0,
            schema: s2(),
            input: Box::new(PhysPlan::Dedup { schema: s2(), input: Box::new(inner) }),
        };
        let diags = verify_plan(&outer, None);
        assert_eq!(codes(&diags), vec!["shared-cycle"]);
    }

    #[test]
    fn fixpoint_scans_are_rejected_outside_a_fixpoint() {
        let p = PhysPlan::ScanIdb { rel: "tc".into(), schema: s2() };
        assert_eq!(codes(&verify_plan(&p, None)), vec!["fixpoint-scan"]);
        let d = PhysPlan::ScanDelta { rel: "tc".into(), schema: s2() };
        assert_eq!(codes(&verify_plan(&d, None)), vec!["fixpoint-scan"]);
    }

    #[test]
    fn scans_are_checked_against_the_catalog_when_a_db_is_given() {
        let db = sailors_sample();
        let missing = PhysPlan::Scan { rel: "Nope".into(), schema: s2() };
        assert_eq!(codes(&verify_plan(&missing, Some(&db))), vec!["unknown-relation"]);
        let wrong = PhysPlan::Scan { rel: "Sailor".into(), schema: s2() }; // Sailor has arity 4
        assert_eq!(codes(&verify_plan(&wrong, Some(&db))), vec!["scan-arity"]);
    }

    #[test]
    fn values_rows_must_match_the_schema_arity() {
        let p = PhysPlan::Values { rows: vec![Tuple::new(vec![Value::Int(1)])], schema: s2() };
        assert_eq!(codes(&verify_plan(&p, None)), vec!["values-arity"]);
    }

    #[test]
    fn planner_output_verifies_clean_with_the_catalog() {
        let db = sailors_sample();
        for q in [
            "SELECT S.sname FROM Sailor S WHERE S.rating > 7",
            "SELECT DISTINCT S.sname FROM Sailor S, Reserves R WHERE S.sid = R.sid",
        ] {
            let trc = relviz_rc::from_sql::parse_sql_to_trc(q, &db).unwrap();
            let plan = crate::planner::plan_trc_with(&trc, &db, OptConfig::optimized()).unwrap();
            let diags = verify_plan(&plan, Some(&db));
            assert!(diags.is_empty(), "{q}:\n{}", render_diagnostics(&diags));
        }
    }

    #[test]
    fn datalog_planner_output_verifies_clean() {
        let db = relviz_model::generate::generate_binary_pair(3, 20, 8);
        let prog = relviz_datalog::parse::parse_program(
            "% query: unreached\n\
             tc(X, Y) :- R(X, Y).\n\
             tc(X, Z) :- tc(X, Y), R(Y, Z).\n\
             node(X) :- R(X, Y).\n\
             node(Y) :- R(X, Y).\n\
             unreached(X, Y) :- node(X), node(Y), not tc(X, Y).",
        )
        .unwrap();
        let plan =
            crate::datalog_planner::plan_datalog_with(&prog, &db, OptConfig::optimized()).unwrap();
        let diags = verify_fixpoint(&plan, Some(&db));
        assert!(diags.is_empty(), "{}", render_diagnostics(&diags));
    }

    #[test]
    fn stripping_delta_variants_from_a_recursive_rule_is_caught() {
        let db = relviz_model::generate::generate_binary_pair(3, 20, 8);
        let prog = relviz_datalog::parse::parse_program(
            "tc(X, Y) :- R(X, Y).\ntc(X, Z) :- tc(X, Y), R(Y, Z).",
        )
        .unwrap();
        let mut plan =
            crate::datalog_planner::plan_datalog_with(&prog, &db, OptConfig::optimized()).unwrap();
        for s in &mut plan.strata {
            for r in &mut s.rules {
                r.deltas.clear();
            }
        }
        let diags = verify_fixpoint(&plan, Some(&db));
        let cs = codes(&diags);
        assert!(cs.contains(&"delta-count"), "{cs:?}");
        assert!(cs.contains(&"recursive-flag"), "{cs:?}");
    }

    #[test]
    fn negation_against_the_same_stratum_is_caught() {
        let db = relviz_model::generate::generate_binary_pair(3, 20, 8);
        let prog = relviz_datalog::parse::parse_program(
            "% query: unreached\n\
             tc(X, Y) :- R(X, Y).\n\
             tc(X, Z) :- tc(X, Y), R(Y, Z).\n\
             node(X) :- R(X, Y).\n\
             unreached(X, Y) :- node(X), node(Y), not tc(X, Y).",
        )
        .unwrap();
        let mut plan =
            crate::datalog_planner::plan_datalog_with(&prog, &db, OptConfig::optimized()).unwrap();
        // Collapse the strata into one, as a broken stratifier would.
        let mut merged = crate::fixpoint::StratumPlan {
            predicates: Vec::new(),
            recursive: true,
            rules: Vec::new(),
        };
        for s in plan.strata.drain(..) {
            merged.predicates.extend(s.predicates);
            merged.rules.extend(s.rules);
        }
        merged.recursive = merged.rules.iter().any(|r| !r.deltas.is_empty());
        plan.strata.push(merged);
        let diags = verify_fixpoint(&plan, Some(&db));
        assert!(codes(&diags).contains(&"negation-stratum"), "{}", render_diagnostics(&diags));
    }

    #[test]
    fn analyzer_reports_every_range_restriction_violation() {
        let db = sailors_sample();
        // bad(X, Y) :- Boat(B, N, C), Z > 2.  — X, Y, Z all unbound.
        // (Built via the AST: the parser rejects this at read time.)
        let rule = Rule {
            head: Atom::new("bad", vec![var("X"), var("Y")]),
            body: vec![
                Literal::Pos(Atom::new("Boat", vec![var("B"), var("N"), var("C")])),
                Literal::Cmp { left: var("Z"), op: CmpOp::Gt, right: Term::Const(Value::Int(2)) },
            ],
        };
        let prog = Program { rules: vec![rule], query: "bad".into() };
        let diags = analyze_program(&prog, &db);
        let rr: Vec<_> = diags.iter().filter(|d| d.code == "range-restriction").collect();
        assert_eq!(rr.len(), 3, "{}", render_diagnostics(&diags)); // X, Y, Z
    }

    #[test]
    fn analyzer_prints_the_unstratifiable_cycle() {
        let db = sailors_sample();
        let prog = relviz_datalog::parse::parse_program(
            "% query: p\np(X) :- Boat(X, N, C), not q(X).\nq(X) :- Boat(X, N, C), p(X).",
        )
        .unwrap();
        let diags = analyze_program(&prog, &db);
        let un: Vec<_> = diags.iter().filter(|d| d.code == "unstratifiable").collect();
        assert_eq!(un.len(), 1, "{}", render_diagnostics(&diags));
        assert!(un[0].message.contains("`p` -not-> `q` -> `p`"), "{}", un[0].message);
    }

    #[test]
    fn analyzer_lints_fire_as_warnings() {
        let db = sailors_sample();
        let prog = relviz_datalog::parse::parse_program(
            "% query: ans\n\
             ans(X) :- Boat(X, N, C), Sailor(S, SN, RT, A), X < X.\n\
             ans(X) :- Boat(X, N, C), Sailor(S, SN, RT, A), X < X.\n\
             orphan(N) :- Boat(B, N, C).",
        )
        .unwrap();
        let diags = analyze_program(&prog, &db);
        let cs = codes(&diags);
        assert!(cs.contains(&"always-empty"), "{}", render_diagnostics(&diags));
        assert!(cs.contains(&"cartesian-product"), "{}", render_diagnostics(&diags));
        assert!(cs.contains(&"dead-rule"), "{}", render_diagnostics(&diags));
        assert!(cs.contains(&"unused-predicate"), "{}", render_diagnostics(&diags));
        assert_eq!(error_count(&diags), 0, "{}", render_diagnostics(&diags));
    }

    #[test]
    fn analyzer_lints_spare_generated_magic_predicates() {
        let db = relviz_model::generate::generate_binary_pair(3, 12, 6);
        // Hand-built worst case: a seed-only magic predicate nothing
        // reads (unused-predicate bait) and a textually duplicated
        // magic guard rule (dead-rule bait). Neither lint may fire on
        // the generated names; the plain `orphan` still trips.
        let prog = relviz_datalog::parse::parse_program(
            "% query: ans\n\
             magic_tc_bf(1).\n\
             magic_stray_bf(2).\n\
             magic_tc_bf(Y) :- magic_tc_bf(X), R(X, Y).\n\
             magic_tc_bf(Y) :- magic_tc_bf(X), R(X, Y).\n\
             ans(Y) :- magic_tc_bf(X), R(X, Y).\n\
             orphan(X) :- R(X, Y).",
        )
        .unwrap();
        let diags = analyze_program(&prog, &db);
        let unused: Vec<_> = diags.iter().filter(|d| d.code == "unused-predicate").collect();
        assert_eq!(unused.len(), 1, "{}", render_diagnostics(&diags));
        assert!(unused[0].at.contains("orphan"), "{}", render_diagnostics(&diags));
        assert!(
            !codes(&diags).contains(&"dead-rule"),
            "duplicate magic guards are expected transform output\n{}",
            render_diagnostics(&diags)
        );
    }

    #[test]
    fn magic_transformed_programs_analyze_clean() {
        let db = relviz_model::generate::generate_binary_pair(7, 20, 8);
        let prog = relviz_datalog::parse::parse_program(
            "% query: q\n\
             tc(X, Y) :- R(X, Y).\n\
             tc(X, Z) :- tc(X, Y), R(Y, Z).\n\
             q(Y) :- tc(1, Y).",
        )
        .unwrap();
        let magic = crate::opt::magic_transform(&prog).expect("bound goal transforms");
        let diags = analyze_program(&magic, &db);
        assert_eq!(error_count(&diags), 0, "{}", render_diagnostics(&diags));
        assert!(
            diags.iter().all(|d| d.code != "unused-predicate" && d.code != "dead-rule"),
            "{}",
            render_diagnostics(&diags)
        );
    }

    #[test]
    fn analyzer_flags_unknown_predicates_and_arity_mismatches() {
        let db = sailors_sample();
        let prog = Program {
            rules: vec![Rule {
                head: Atom::new("ans", vec![var("X")]),
                body: vec![
                    Literal::Pos(Atom::new("Boat", vec![var("X"), var("N")])), // arity 3!
                    Literal::Pos(Atom::new("ghost", vec![var("X")])),
                ],
            }],
            query: "ans".into(),
        };
        let diags = analyze_program(&prog, &db);
        let cs = codes(&diags);
        assert!(cs.contains(&"arity-mismatch"), "{}", render_diagnostics(&diags));
        assert!(cs.contains(&"unknown-predicate"), "{}", render_diagnostics(&diags));
    }

    #[test]
    fn verified_explain_carries_the_footer() {
        let text = explain_verified(&scan2());
        assert!(text.contains("✓ verified"), "{text}");
        let bad = PhysPlan::Project {
            cols: vec![OutputCol::Pos(9)],
            schema: Schema::of(&[("a", DataType::Int)]),
            input: Box::new(scan2()),
        };
        let text = explain_verified(&bad);
        assert!(text.contains("✗ verification"), "{text}");
        assert!(text.contains("col-bounds"), "{text}");
    }

    #[test]
    fn check_plan_is_a_hard_gate() {
        let bad = PhysPlan::Project {
            cols: vec![OutputCol::Pos(9)],
            schema: Schema::of(&[("a", DataType::Int)]),
            input: Box::new(scan2()),
        };
        let err = check_plan(&bad, None).unwrap_err();
        assert!(err.to_string().contains("col-bounds"), "{err}");
        assert!(check_plan(&scan2(), None).is_ok());
    }
}
