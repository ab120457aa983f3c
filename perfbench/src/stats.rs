//! The benchmark's own arithmetic: order statistics, the sample-count
//! rule for percentiles, span self time, and the mix guard.

/// Sorts a copy of `values` ascending (NaN-free input assumed: every
/// value is a measured duration).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of an ascending slice: the smallest value
/// with at least `p` of the samples at or below it. `p` in (0, 1].
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p) - 1]
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps exact products (0.95 * 200 = 190) from rounding
    // up to the next rank through floating-point error.
    (((n as f64) * p) - 1e-9).ceil().clamp(1.0, n as f64) as usize
}

/// How many samples lie strictly beyond the nearest-rank `p` percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// The smallest sample count that leaves at least `beyond` samples past
/// the `p` percentile — the rule for the highest percentile a sample
/// supports.
pub fn min_samples_for(p: f64, beyond: usize) -> usize {
    (1..)
        .find(|&n| samples_beyond(n, p) >= beyond)
        .expect("some n qualifies")
}

/// Median of an ascending slice (mean of the middle pair when even).
pub fn median(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "median of an empty sample");
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Quartiles exactly as Python's `statistics.quantiles(data, n=4)`
/// (the default "exclusive" method) computes them, so the spread the
/// benchmark reports matches the one its users compute from its runs.
pub fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let ld = sorted.len();
    assert!(ld >= 2, "quartiles need at least two samples");
    let n = 4usize;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (sorted[j - 1] * (n as f64 - delta) + sorted[j] * delta) / n as f64;
    }
    out
}

/// Self time of a span `[start, end)`: its duration minus the union of
/// its children's intervals, each clipped to the span. Children may nest
/// in each other or overlap; covered time is counted once.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = current {
        covered += ce - cs;
    }
    (end - start) - covered
}

/// One op type's row of the warm-up mix table.
#[derive(Debug, Clone)]
pub struct MixRow {
    pub kind: String,
    pub share: f64,
    pub median_ms: f64,
}

/// Why a mix is refused: which percentile sits where op types with very
/// different medians meet.
#[derive(Debug, Clone, PartialEq)]
pub struct MixHazard {
    pub percentile: f64,
    pub fastest: String,
    pub slowest: String,
    pub ratio: f64,
}

/// The mix guard. Op types are ordered by median and laid end to end by
/// share, so the latency distribution's `q` quantile falls in the band
/// of one op type. If a percentile lies within `window` (a share, e.g.
/// 0.05) of a band boundary, a small shift in shares or timings can move
/// it to another op type; that is only harmless when every op type with a
/// band inside the window has a median within `max_ratio` of the others.
pub fn mix_hazards(
    rows: &[MixRow],
    percentiles: &[f64],
    window: f64,
    max_ratio: f64,
) -> Vec<MixHazard> {
    let mut ordered: Vec<&MixRow> = rows.iter().filter(|r| r.share > 0.0).collect();
    ordered.sort_by(|a, b| a.median_ms.total_cmp(&b.median_ms));
    let mut bands = Vec::with_capacity(ordered.len());
    let mut lo = 0.0;
    for row in ordered {
        bands.push((lo, lo + row.share, row));
        lo += row.share;
    }
    let mut hazards = Vec::new();
    for &q in percentiles {
        let near: Vec<&MixRow> = bands
            .iter()
            .filter(|(lo, hi, _)| *hi > q - window && *lo < q + window)
            .map(|(_, _, row)| *row)
            .collect();
        let (Some(fastest), Some(slowest)) = (near.first(), near.last()) else {
            continue;
        };
        let ratio = slowest.median_ms / fastest.median_ms.max(f64::MIN_POSITIVE);
        if ratio > max_ratio {
            hazards.push(MixHazard {
                percentile: q,
                fastest: fastest.kind.clone(),
                slowest: slowest.kind.clone(),
                ratio,
            });
        }
    }
    hazards
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p95_needs_two_hundred_samples_for_ten_beyond() {
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert_eq!(samples_beyond(199, 0.95), 9);
        assert_eq!(min_samples_for(0.95, 10), 200);
        assert_eq!(min_samples_for(0.99, 10), 1000);
        assert_eq!(min_samples_for(0.5, 10), 20);
        assert_eq!(samples_beyond(0, 0.95), 0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.95), 190.0);
        assert_eq!(percentile(&v, 0.5), 100.0);
        assert_eq!(percentile(&v, 1.0), 200.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[1.0, 2.0, 9.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 4.0, 9.0]), 3.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0]), [1.25, 3.0, 7.0]);
        // Two samples clamp to the ends: quantiles([3, 5]) == [2.5, 4.0, 5.5]
        assert_eq!(quartiles(&[3.0, 5.0]), [2.5, 4.0, 5.5]);
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        assert_eq!(self_time(0, 100, &[(10, 20), (30, 50)]), 70);
        assert_eq!(self_time(0, 100, &[]), 100);
    }

    #[test]
    fn self_time_counts_nested_and_overlapping_children_once() {
        // (20, 30) nests in (10, 40); (35, 60) overlaps it.
        assert_eq!(self_time(0, 100, &[(10, 40), (20, 30), (35, 60)]), 50);
        // Children spilling past the parent are clipped to it.
        assert_eq!(self_time(50, 100, &[(40, 60), (90, 120)]), 30);
        // A child covering everything leaves no self time.
        assert_eq!(self_time(0, 10, &[(0, 10), (2, 3)]), 0);
        // Touching intervals merge without double counting.
        assert_eq!(self_time(0, 10, &[(0, 5), (5, 10)]), 0);
    }

    fn row(kind: &str, share: f64, median_ms: f64) -> MixRow {
        MixRow {
            kind: kind.to_string(),
            share,
            median_ms,
        }
    }

    #[test]
    fn mix_guard_refuses_a_median_on_a_cliff() {
        // Half fast, half slow: p50 sits exactly on the boundary.
        let rows = [row("fast", 0.5, 0.1), row("slow", 0.5, 2.0)];
        let hazards = mix_hazards(&rows, &[0.5, 0.95], 0.05, 2.0);
        assert_eq!(hazards.len(), 1);
        assert_eq!(hazards[0].percentile, 0.5);
        assert_eq!(hazards[0].fastest, "fast");
        assert_eq!(hazards[0].slowest, "slow");
    }

    #[test]
    fn mix_guard_accepts_percentiles_inside_a_band_or_between_similar_types() {
        let rows = [
            row("reach", 0.25, 1.2),
            row("tc", 0.375, 8.0),
            row("sg", 0.375, 12.0),
        ];
        assert!(mix_hazards(&rows, &[0.5, 0.95], 0.05, 2.0).is_empty());
        // A boundary near p50 between types within 2x is harmless.
        let rows = [row("a", 0.48, 1.0), row("b", 0.52, 1.9)];
        assert!(mix_hazards(&rows, &[0.5], 0.05, 2.0).is_empty());
    }

    #[test]
    fn mix_guard_sees_through_a_thin_intermediate_type() {
        // Adjacent ratios are all <= 2, but the window around p50 spans
        // medians 1.0 .. 3.8.
        let rows = [
            row("a", 0.48, 1.0),
            row("b", 0.01, 1.9),
            row("c", 0.51, 3.8),
        ];
        let hazards = mix_hazards(&rows, &[0.5], 0.05, 2.0);
        assert_eq!(hazards.len(), 1);
        assert_eq!(
            (hazards[0].fastest.as_str(), hazards[0].slowest.as_str()),
            ("a", "c")
        );
    }
}
