//! Shared harness utilities for the experiment binaries.
//!
//! Every table and figure of the paper has a binary in `src/bin/`; all of
//! them understand the same flags:
//!
//! * `--full` — run at paper scale (101×101 grid, Table 1 SA schedules).
//!   The default is a reduced scale (41×41 grid, quick schedules) that
//!   reproduces the *shape* of each result in minutes instead of hours;
//! * `--grid N` — override the grid side length;
//! * `--seed S` — RNG seed for the SA searches;
//! * `--out DIR` — where result artifacts (JSON networks, CSV maps) are
//!   written (default `target/experiments`).

#![forbid(unsafe_code)]

use coolnet::prelude::*;
use std::path::{Path, PathBuf};

/// Parsed harness options.
#[derive(Debug, Clone)]
pub struct HarnessOpts {
    /// Paper-scale run.
    pub full: bool,
    /// Grid side length.
    pub grid: u16,
    /// SA seed.
    pub seed: u64,
    /// Output directory for artifacts.
    pub out: PathBuf,
    /// Remaining positional arguments.
    pub rest: Vec<String>,
}

impl HarnessOpts {
    /// Parses `std::env::args`.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed flags.
    pub fn from_args() -> Self {
        let mut opts = Self {
            full: false,
            grid: 0,
            seed: 42,
            out: PathBuf::from("target/experiments"),
            rest: Vec::new(),
        };
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--full" => opts.full = true,
                "--grid" => {
                    opts.grid = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--grid needs a number");
                }
                "--seed" => {
                    opts.seed = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--seed needs a number");
                }
                "--out" => {
                    opts.out = args.next().map(PathBuf::from).expect("--out needs a path");
                }
                other => opts.rest.push(other.to_owned()),
            }
        }
        if opts.grid == 0 {
            opts.grid = if opts.full { 101 } else { 41 };
        }
        opts
    }

    /// The grid for this run.
    pub fn dims(&self) -> GridDims {
        GridDims::new(self.grid, self.grid)
    }

    /// The benchmark suite at this run's scale.
    pub fn benchmarks(&self) -> Vec<Benchmark> {
        (1..=5)
            .map(|id| {
                if self.full && self.grid == 101 {
                    Benchmark::iccad(id)
                } else {
                    Benchmark::iccad_scaled(id, self.dims())
                }
            })
            .collect()
    }

    /// One benchmark case at this run's scale.
    pub fn benchmark(&self, id: usize) -> Benchmark {
        if self.full && self.grid == 101 {
            Benchmark::iccad(id)
        } else {
            Benchmark::iccad_scaled(id, self.dims())
        }
    }

    /// The tree-search options for `problem` at this run's scale.
    pub fn tree_options(&self, problem: Problem) -> TreeSearchOptions {
        if self.full {
            match problem {
                Problem::PumpingPower => TreeSearchOptions::paper_problem1(self.seed),
                Problem::ThermalGradient => TreeSearchOptions::paper_problem2(self.seed),
            }
        } else {
            let mut o = TreeSearchOptions::reduced(self.seed);
            o.parallelism = std::thread::available_parallelism().map_or(4, |p| p.get().min(8));
            o
        }
    }

    /// Pressure-search options (coarser in reduced mode).
    pub fn psearch(&self) -> PressureSearchOptions {
        if self.full {
            PressureSearchOptions::default()
        } else {
            PressureSearchOptions {
                rel_tol: 0.02,
                max_probes: 60,
                ..PressureSearchOptions::default()
            }
        }
    }

    /// Ensures the output directory exists and returns a path inside it.
    ///
    /// # Panics
    ///
    /// Panics if the directory cannot be created.
    pub fn out_path(&self, name: &str) -> PathBuf {
        std::fs::create_dir_all(&self.out).expect("create output directory");
        self.out.join(name)
    }
}

/// Escalation accounting of the two-step solve over a snapshot window:
/// how many solve attempts were spent beyond the first attempt of each
/// solve. Every field reads 0 when the metrics layer is disabled.
#[derive(Debug, serde::Serialize)]
pub struct LadderSummary {
    /// Solves that returned a solution (`ladder.solves`).
    pub solves: u64,
    /// Solver attempts actually run (`ladder.attempts`).
    pub attempts: u64,
    /// Solves the direct step finished (`ladder.escalations`).
    pub escalations: u64,
    /// Attempts beyond one per solve (`attempts - solves`).
    pub wasted_attempts: u64,
    /// `escalations / solves` (0 when no solves ran).
    pub escalation_rate: f64,
}

impl LadderSummary {
    /// The `ladder.*` counter deltas from `before` to `after`.
    pub fn delta(
        after: &coolnet_obs::MetricsSnapshot,
        before: &coolnet_obs::MetricsSnapshot,
    ) -> Self {
        let solves = after.counter_delta(before, "ladder.solves");
        let attempts = after.counter_delta(before, "ladder.attempts");
        let escalations = after.counter_delta(before, "ladder.escalations");
        Self {
            solves,
            attempts,
            escalations,
            wasted_attempts: attempts.saturating_sub(solves),
            escalation_rate: if solves == 0 {
                0.0
            } else {
                escalations as f64 / solves as f64
            },
        }
    }
}

/// Writes a serializable artifact as pretty JSON.
///
/// # Panics
///
/// Panics on I/O or serialization errors (harness binaries fail loudly).
pub fn write_json<T: serde::Serialize>(path: &Path, value: &T) {
    let json = serde_json::to_string_pretty(value).expect("serialize artifact");
    std::fs::write(path, json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("  wrote {}", path.display());
}

/// Reads a JSON artifact back.
///
/// # Panics
///
/// Panics on I/O or deserialization errors.
pub fn read_json<T: serde::de::DeserializeOwned>(path: &Path) -> T {
    let data =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    serde_json::from_str(&data).unwrap_or_else(|e| panic!("parse {}: {e}", path.display()))
}

/// Writes a CSV from a header and rows of float cells.
///
/// # Panics
///
/// Panics on I/O errors.
pub fn write_csv(path: &Path, header: &[&str], rows: &[Vec<f64>]) {
    let mut out = String::new();
    out.push_str(&header.join(","));
    out.push('\n');
    for row in rows {
        let cells: Vec<String> = row.iter().map(|v| format!("{v}")).collect();
        out.push_str(&cells.join(","));
        out.push('\n');
    }
    std::fs::write(path, out).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("  wrote {}", path.display());
}

/// Renders a coarse ASCII heatmap of a source-layer temperature map
/// (10 intensity levels between the layer's min and max).
pub fn ascii_heatmap(layer: &coolnet::thermal::solution::SourceLayerTemps, cols: u16) -> String {
    const LEVELS: &[u8] = b" .:-=+*#%@";
    let dims = layer.dims();
    let (lo, hi) = (layer.min().value(), layer.max().value());
    let span = (hi - lo).max(1e-12);
    let step = (dims.width() / cols.min(dims.width())).max(1);
    let mut out = String::new();
    let mut y = dims.height();
    while y >= step {
        y -= step;
        let mut x = 0;
        while x < dims.width() {
            let t = layer.temperature(Cell::new(x, y)).value();
            let idx = (((t - lo) / span) * (LEVELS.len() - 1) as f64).round() as usize;
            out.push(LEVELS[idx.min(LEVELS.len() - 1)] as char);
            x += step;
        }
        out.push('\n');
    }
    out
}

/// Renders a solved flow field as an SVG: cells shaded by pressure (dark =
/// high) with arrows sized by the local flow rate — the Fig. 2(c) visual.
pub fn svg_flow(
    net: &CoolingNetwork,
    model: &FlowModel,
    field: &coolnet::flow::FlowField<'_>,
    cell_px: u32,
) -> String {
    let dims = net.dims();
    let (w, h) = (dims.width() as u32, dims.height() as u32);
    let p_sys = field.p_sys().value().max(1e-30);
    // Largest link flow for arrow scaling.
    let mut q_max = 0.0f64;
    for &cell in model.cells() {
        for d in [Dir::East, Dir::North] {
            if let Some(nb) = dims.neighbor(cell, d) {
                if let Some(q) = field.flow(cell, nb) {
                    q_max = q_max.max(q.value().abs());
                }
            }
        }
    }
    let q_max = q_max.max(1e-30);
    let mut out = String::new();
    out.push_str(&format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{}\" height=\"{}\">\n",
        w * cell_px,
        h * cell_px
    ));
    out.push_str("<rect width=\"100%\" height=\"100%\" fill=\"#e9e4d8\"/>\n");
    for cell in dims.iter() {
        let sx = cell.x as u32 * cell_px;
        let sy = (h - 1 - cell.y as u32) * cell_px;
        match field.pressure(cell) {
            Some(p) => {
                let f = (p.value() / p_sys).clamp(0.0, 1.0);
                // Light to dark blue with pressure.
                let shade = (230.0 - f * 160.0) as u8;
                out.push_str(&format!(
                    "<rect x=\"{sx}\" y=\"{sy}\" width=\"{cell_px}\" height=\"{cell_px}\" \
                     fill=\"rgb({0},{1},230)\"/>\n",
                    shade,
                    (shade as u32 + 10).min(255),
                ));
            }
            None => {
                if net.tsv().contains(cell) {
                    out.push_str(&format!(
                        "<rect x=\"{sx}\" y=\"{sy}\" width=\"{cell_px}\" height=\"{cell_px}\" \
                         fill=\"#57534a\"/>\n"
                    ));
                }
            }
        }
    }
    // Flow arrows (line segments scaled by |Q|) on East/North links.
    for &cell in model.cells() {
        for d in [Dir::East, Dir::North] {
            let Some(nb) = dims.neighbor(cell, d) else {
                continue;
            };
            let Some(q) = field.flow(cell, nb) else {
                continue;
            };
            let mag = q.value().abs() / q_max;
            if mag < 0.02 {
                continue;
            }
            let cx = cell.x as f64 * cell_px as f64 + cell_px as f64 / 2.0;
            let cy = (h - 1 - cell.y as u32) as f64 * cell_px as f64 + cell_px as f64 / 2.0;
            let len = cell_px as f64 * (0.3 + 0.6 * mag);
            let (dx, dy) = match d {
                Dir::East => (len, 0.0),
                Dir::North => (0.0, -len),
                _ => unreachable!("only east/north links are drawn"),
            };
            // Direction sign: negative q points the arrow backwards.
            let sgn = if q.value() >= 0.0 { 1.0 } else { -1.0 };
            out.push_str(&format!(
                "<line x1=\"{:.1}\" y1=\"{:.1}\" x2=\"{:.1}\" y2=\"{:.1}\" \
                 stroke=\"#1b2a41\" stroke-width=\"{:.2}\"/>\n",
                cx - sgn * dx / 2.0,
                cy - sgn * dy / 2.0,
                cx + sgn * dx / 2.0,
                cy + sgn * dy / 2.0,
                1.0 + 2.0 * mag,
            ));
        }
    }
    out.push_str("</svg>\n");
    out
}

/// Renders a source-layer temperature map as a standalone SVG heatmap
/// (blue = layer minimum, red = layer maximum).
pub fn svg_heatmap(layer: &coolnet::thermal::solution::SourceLayerTemps, cell_px: u32) -> String {
    let dims = layer.dims();
    let (w, h) = (dims.width() as u32, dims.height() as u32);
    let (lo, hi) = (layer.min().value(), layer.max().value());
    let span = (hi - lo).max(1e-12);
    let mut out = String::new();
    out.push_str(&format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{}\" height=\"{}\">\n",
        w * cell_px,
        h * cell_px
    ));
    for cell in dims.iter() {
        let t = layer.temperature(cell).value();
        let f = ((t - lo) / span).clamp(0.0, 1.0);
        // Blue -> red ramp through white.
        let (r, g, b) = if f < 0.5 {
            let k = f * 2.0;
            (
                (59.0 + k * (244.0 - 59.0)) as u8,
                (130.0 + k * (241.0 - 130.0)) as u8,
                (196.0 + k * (234.0 - 196.0)) as u8,
            )
        } else {
            let k = (f - 0.5) * 2.0;
            (
                (244.0 - k * (244.0 - 192.0)) as u8,
                (241.0 - k * (241.0 - 57.0)) as u8,
                (234.0 - k * (234.0 - 43.0)) as u8,
            )
        };
        out.push_str(&format!(
            "<rect x=\"{}\" y=\"{}\" width=\"{cell_px}\" height=\"{cell_px}\" fill=\"rgb({r},{g},{b})\"/>\n",
            cell.x as u32 * cell_px,
            (h - 1 - cell.y as u32) * cell_px,
        ));
    }
    out.push_str("</svg>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_scaling_follows_options() {
        let opts = HarnessOpts {
            full: false,
            grid: 21,
            seed: 1,
            out: PathBuf::from("/tmp"),
            rest: vec![],
        };
        let b = opts.benchmark(1);
        assert_eq!(b.dims, GridDims::new(21, 21));
        assert_eq!(opts.benchmarks().len(), 5);
    }

    /// `probe_bench` flattens the summary into each configuration row, so
    /// CI's `jq` gates read `.escalations`, `.wasted_attempts` and
    /// `.escalation_rate` at the row's top level.
    #[test]
    fn flattened_ladder_summary_serializes_flat() {
        #[derive(serde::Serialize)]
        struct Row {
            name: String,
            #[serde(flatten)]
            ladder: LadderSummary,
        }
        let before = coolnet_obs::MetricsSnapshot::default();
        let mut after = before.clone();
        for (name, value) in [
            ("ladder.solves", 4),
            ("ladder.attempts", 5),
            ("ladder.escalations", 1),
        ] {
            after.counters.insert(name.to_owned(), value);
        }
        let row = Row {
            name: "cached".to_owned(),
            ladder: LadderSummary::delta(&after, &before),
        };
        let json = serde_json::to_string(&row).unwrap();
        assert_eq!(
            json,
            r#"{"name":"cached","solves":4,"attempts":5,"escalations":1,"wasted_attempts":1,"escalation_rate":0.25}"#
        );
    }

    #[test]
    fn json_round_trip_via_files() {
        let dir = std::env::temp_dir().join("coolnet-harness-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("net.json");
        let dims = GridDims::new(11, 11);
        let net = straight::build(
            dims,
            &tsv::alternating(dims),
            Dir::East,
            &StraightParams::default(),
        )
        .unwrap();
        write_json(&path, &net);
        let back: CoolingNetwork = read_json(&path);
        assert_eq!(net, back);
    }

    #[test]
    fn svg_flow_draws_cells_and_arrows() {
        let dims = GridDims::new(5, 3);
        let mut b = CoolingNetwork::builder(dims);
        b.segment(Cell::new(0, 1), Dir::East, 5);
        b.port(PortKind::Inlet, Side::West, 1, 1);
        b.port(PortKind::Outlet, Side::East, 1, 1);
        let net = b.build().unwrap();
        let model = FlowModel::new(&net, &FlowConfig::default()).unwrap();
        let field = model.solve(Pascal::from_kilopascals(5.0));
        let doc = svg_flow(&net, &model, &field, 20);
        assert!(doc.starts_with("<svg"));
        assert_eq!(doc.matches("<line").count(), 4); // 4 internal links
        assert!(doc.matches("<rect").count() >= 6); // background + 5 liquid
    }

    #[test]
    fn svg_heatmap_spans_the_ramp() {
        let dims = GridDims::new(3, 1);
        let layer = coolnet::thermal::solution::SourceLayerTemps::new(
            0,
            dims,
            coolnet::thermal::solution::Resolution::Fine,
            vec![300.0, 310.0, 320.0],
        );
        let doc = svg_heatmap(&layer, 4);
        assert!(doc.starts_with("<svg"));
        assert_eq!(doc.matches("<rect").count(), 3);
    }

    #[test]
    fn csv_writer_produces_rows() {
        let dir = std::env::temp_dir().join("coolnet-harness-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        write_csv(&path, &["a", "b"], &[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.starts_with("a,b\n1,2\n"));
    }
}
