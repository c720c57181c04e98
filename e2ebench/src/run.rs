//! One benchmark run: repeated untraced set-up + timed phase for the
//! requested seconds, then (with `--trace 1`) one traced run that yields
//! the per-layer metrics.

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::probes::Probes;
use crate::spans::Spans;
use crate::stats::{median, ratio, weighted_percentile};
use crate::workloads::{FleetElastic, OfflineLongctx, Outcome, ServePrefix, Workload};
use hilos_trace::{check_conservation, perfetto_json, Event, LatencyAttribution};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Fewest untraced repetitions a run makes, however short `--seconds`.
const MIN_REPS: usize = 3;
/// Set-ups timed per repetition: set-up is short, so `setup_s` is the
/// median of several.
const SETUPS_PER_REP: usize = 9;
/// Least share of the traced run's host time its spans must cover.
pub const MIN_SPAN_COVERAGE: f64 = 0.95;

/// What the command line asked for.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds to keep repeating the untraced timed phase.
    pub seconds: f64,
    /// Whether to make the traced run and print per-layer metrics.
    pub trace: bool,
    /// Input size override (the self-test's tiny runs).
    pub items: Option<usize>,
    /// Where the traced run writes its span files (none if `None`).
    pub out_dir: Option<PathBuf>,
}

/// A finished run: the contract's counts plus `(name, unit, value)`
/// metrics in declaration order.
#[derive(Debug, Clone)]
pub struct Report {
    /// Operations attempted across every repetition.
    pub attempted: u64,
    /// Operations failed across every repetition.
    pub failed: u64,
    /// The metrics, in `metrics.rs` order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
}

/// Runs the workload `opts` names.
pub fn run(opts: &Options) -> Result<Report, String> {
    match opts.workload.as_str() {
        "offline-longctx" => {
            measure(&OfflineLongctx::new(opts.items.unwrap_or(OfflineLongctx::DEFAULT_ITEMS)), opts)
        }
        "serve-prefix" => measure(
            &ServePrefix { requests: opts.items.unwrap_or(ServePrefix::DEFAULT_ITEMS) },
            opts,
        ),
        "fleet-elastic" => measure(
            &FleetElastic { requests: opts.items.unwrap_or(FleetElastic::DEFAULT_ITEMS) },
            opts,
        ),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// Fingerprint of the inputs `workload` generates for `seed`.
pub fn input_fingerprint(workload: &str, seed: u64, items: usize) -> Result<u64, String> {
    fn of<W: Workload>(w: &W, seed: u64) -> Result<u64, String> {
        Ok(w.input_fingerprint(&w.generate(seed, &mut Spans::default())?))
    }
    match workload {
        "offline-longctx" => of(&OfflineLongctx::new(items), seed),
        "serve-prefix" => of(&ServePrefix { requests: items }, seed),
        "fleet-elastic" => of(&FleetElastic { requests: items }, seed),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn measure<W: Workload>(w: &W, opts: &Options) -> Result<Report, String> {
    let budget = Duration::from_secs_f64(opts.seconds.max(0.0));
    let start = Instant::now();
    let (mut setups, mut walls) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut first: Option<Outcome> = None;
    while walls.len() < MIN_REPS || start.elapsed() < budget {
        let mut spans = Spans::default();
        let mut set_up = || -> Result<_, String> {
            let t = Instant::now();
            let inputs = w.generate(opts.seed, &mut spans)?;
            let built = w.build(&inputs, None, &mut spans)?;
            setups.push(t.elapsed().as_secs_f64());
            Ok((inputs, built))
        };
        for _ in 1..SETUPS_PER_REP {
            set_up()?;
        }
        let (inputs, built) = set_up()?;
        let t = Instant::now();
        let out = w.run(&inputs, built, &mut spans)?;
        walls.push(t.elapsed().as_secs_f64());
        attempted += out.attempted;
        failed += out.failed;
        eprintln!(
            "rep {}: setup {:.4}s, wall {:.4}s",
            walls.len(),
            median(&setups[setups.len() - SETUPS_PER_REP..]),
            walls[walls.len() - 1]
        );
        match &first {
            None => first = Some(out),
            Some(f) if f.fingerprint != out.fingerprint || f.modeled != out.modeled => {
                return Err("simulated results differ between repetitions of one seed".into());
            }
            Some(_) => {}
        }
    }
    let first = first.expect("at least one repetition ran");
    let rss = peak_rss_mb()?;
    let m = first.modeled;
    let mut values: BTreeMap<&str, f64> = BTreeMap::from([
        ("setup_s", median(&setups)),
        ("wall_s", median(&walls)),
        ("peak_rss_mb", rss),
        ("model_tok_s", m.tok_s),
        ("model_ttft_p50_s", m.ttft_p50_s),
        ("model_ttft_p99_s", m.ttft_p99_s),
        ("model_itl_p99_s", m.itl_p99_s),
        ("model_usd_per_mtok", m.usd_per_mtok),
        ("success_frac", 1.0 - ratio(failed as f64, attempted as f64)),
    ]);
    eprintln!(
        "{}: {} reps, {} attempted / {} failed, fingerprint {:#018x}",
        opts.workload,
        walls.len(),
        attempted,
        failed,
        first.fingerprint
    );
    let declared: &[(&'static str, &'static str)] = if opts.trace {
        values = traced_run(w, opts, &first, median(&walls))?;
        &PER_LAYER
    } else {
        &END_TO_END
    };
    let metrics = declared
        .iter()
        .map(|&(name, unit)| {
            // `+ 0.0` turns the -0.0 of an empty sum into 0.0.
            let v = values.get(name).copied().unwrap_or(0.0) + 0.0;
            if v.is_finite() {
                Ok((name, unit, v))
            } else {
                Err(format!("metric {name} is not finite: {v}"))
            }
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Report { attempted, failed, metrics })
}

/// Mean of each attribution component per completed request.
fn attribution_means(rings: &[&[Event]]) -> (usize, [(&'static str, f64); 7]) {
    let attr = LatencyAttribution::analyze(rings);
    let n = attr.rows.len() as f64;
    let mean = |f: fn(&hilos_trace::RequestAttribution) -> f64| {
        ratio(attr.rows.iter().map(f).sum::<f64>(), n)
    };
    (
        attr.rows.len(),
        [
            ("attr.queue_s", mean(|r| r.queue_s)),
            ("attr.recall_s", mean(|r| r.recall_s)),
            ("attr.prefill_s", mean(|r| r.prefill_s)),
            ("attr.interference_s", mean(|r| r.interference_s)),
            ("attr.preemption_lost_s", mean(|r| r.preemption_lost_s)),
            ("attr.migration_s", mean(|r| r.migration_s)),
            ("attr.decode_s", mean(|r| r.decode_s)),
        ],
    )
}

/// The traced run: library tracing on, policies wrapped in timing
/// probes, a span around every call into the library. Returns the
/// per-layer metrics.
fn traced_run<W: Workload>(
    w: &W,
    opts: &Options,
    untraced: &Outcome,
    untraced_wall_s: f64,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let probes = Probes::default();
    let mut spans = Spans::default();
    let root = spans.begin("traced_run");
    let inputs = w.generate(opts.seed, &mut spans)?;
    let built = w.build(&inputs, Some(&probes), &mut spans)?;
    let t = Instant::now();
    let out = w.run(&inputs, built, &mut spans)?;
    let traced_wall_s = t.elapsed().as_secs_f64();
    let idx = spans.begin("trace.analyze");
    let rings: Vec<&[Event]> = out.rings.iter().map(Vec::as_slice).collect();
    let conservation = check_conservation(&rings);
    let (attributed, attr) = attribution_means(&rings);
    spans.end(idx);
    spans.end(root);

    if out.fingerprint != untraced.fingerprint || out.modeled != untraced.modeled {
        return Err("the traced run's simulated results differ from the untraced run's".into());
    }
    if out.events_dropped != 0 {
        return Err(format!("the event rings dropped {} events", out.events_dropped));
    }
    let events: usize = rings.iter().map(|r| r.len()).sum();
    if events > 0 {
        if !conservation.holds() {
            return Err(format!("event conservation violated: {conservation:?}"));
        }
        let completed = conservation.completed;
        if conservation.arrived as u64 != out.attempted || attributed != completed {
            return Err(format!(
                "{} arrivals / {attributed} attributed vs {} requests / {completed} completed",
                conservation.arrived, out.attempted
            ));
        }
    }
    let coverage = spans.child_coverage(root);
    if coverage < MIN_SPAN_COVERAGE {
        return Err(format!("spans cover only {:.1}% of the traced run", coverage * 100.0));
    }

    let mut v: BTreeMap<&'static str, f64> = out.layers.iter().copied().collect();
    let decode_ms: Vec<(f64, u64)> =
        spans.named("runner.decode").map(|s| (s.seconds() * 1e3, 1)).collect();
    let run_trace_s = out.run_trace_s;
    let policy_s = probes.policy_seconds();
    v.extend([
        ("llm.trace_gen_s", spans.total_s("llm.trace_gen")),
        ("core.build_s", spans.total_s("core.build")),
        ("runner.prefill_calls", spans.count("runner.prefill") as f64),
        ("runner.prefill_s", spans.total_s("runner.prefill")),
        ("runner.decode_calls", decode_ms.len() as f64),
        ("runner.decode_s", spans.total_s("runner.decode")),
        ("runner.decode_call_p50_ms", weighted_percentile(&decode_ms, 0.50)),
        ("runner.decode_call_p90_ms", weighted_percentile(&decode_ms, 0.90)),
        ("serve.schedule_calls", probes.schedule.calls() as f64),
        ("serve.schedule_s", probes.schedule.seconds()),
        ("serve.engine_self_s", if run_trace_s > 0.0 { run_trace_s - policy_s } else { 0.0 }),
        ("serve.host_ns_per_step", ratio(run_trace_s * 1e9, out.steps as f64)),
        ("cluster.route_calls", probes.route.calls() as f64),
        ("cluster.route_s", probes.route.seconds()),
        ("elastic.decide_calls", probes.autoscale.calls() as f64),
        ("elastic.decide_s", probes.autoscale.seconds()),
        ("trace.events", events as f64),
        ("trace.overhead_frac", traced_wall_s / untraced_wall_s - 1.0),
        ("trace.span_coverage", coverage),
    ]);
    v.extend(attr);
    if let Some(dir) = &opts.out_dir {
        write_traces(dir, opts, &spans, &rings)?;
    }
    eprintln!("traced run: peak RSS {:.1} MiB", peak_rss_mb()?);
    Ok(v)
}

/// Writes the host spans and, for trace workloads, the simulated-time
/// request spans (`hilos_trace::perfetto_json`), both loadable in
/// ui.perfetto.dev.
fn write_traces(
    dir: &std::path::Path,
    opts: &Options,
    spans: &Spans,
    rings: &[&[Event]],
) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let stem = format!("{}-seed{}", opts.workload, opts.seed);
    let mut files = vec![(dir.join(format!("{stem}.host.json")), spans.to_chrome_json())];
    if !rings.iter().all(|r| r.is_empty()) {
        files.push((dir.join(format!("{stem}.sim.json")), perfetto_json(rings)));
    }
    for (path, doc) in files {
        std::fs::write(&path, doc).map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}
