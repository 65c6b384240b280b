//! The four workloads and the output gate that checks their reports.
//!
//! Each workload is a paper-size configuration, scaled in iterations or
//! time steps only, so one run takes about two seconds on a 2-core host.
//! `NOTES.md` says why each was chosen and which layers it exercises.

use cni::{Config, FaultPlan, RunReport};
use cni_apps::cholesky::CholeskyMatrix;
use cni_apps::experiments::App;

/// The seed `cni-run` uses when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 0x5EED;

/// One benchmark workload.
pub struct Workload {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// The application and its size.
    pub app: App,
    /// The cluster, applied to `Config::paper_default()`.
    shape: fn(Config) -> Config,
    /// The `cni-run` flags that select the same run (without `--seed`).
    pub cli: &'static [&'static str],
    /// Digest of the report at [`DEFAULT_SEED`] (see [`digest`]).
    pub golden: u64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "jacobi-1024",
        app: App::Jacobi { n: 1024, iters: 6 },
        shape: |c| c.with_procs(8).cni(),
        cli: &[
            "--app", "jacobi", "--n", "1024", "--iters", "6", "--procs", "8",
        ],
        golden: 0xbff3_5fee_5ed3_62c6,
    },
    Workload {
        name: "cholesky15-p32",
        app: App::Cholesky {
            matrix: CholeskyMatrix::Bcsstk15,
        },
        shape: |c| c.with_procs(32).cni(),
        cli: &["--app", "cholesky", "--matrix", "bcsstk15", "--procs", "32"],
        golden: 0x256e_4a37_f454_5b71,
    },
    Workload {
        name: "water-std-lossy",
        app: App::Water {
            molecules: 343,
            steps: 1,
        },
        shape: |c| {
            let mut plan = FaultPlan::none();
            plan.drop_prob = 1e-4;
            plan.seed = 1;
            c.with_procs(16).with_faults(plan).standard()
        },
        cli: &[
            "--app",
            "water",
            "--molecules",
            "343",
            "--steps",
            "1",
            "--procs",
            "16",
            "--nic",
            "standard",
            "--loss-prob",
            "1e-4",
            "--fault-seed",
            "1",
        ],
        golden: 0xfc90_e6c4_0d4d_0aec,
    },
    Workload {
        name: "fattree-256",
        app: App::Jacobi { n: 256, iters: 25 },
        shape: |c| {
            c.with_fat_tree(16, 16, 16)
                .with_procs(256)
                .with_collectives()
                .cni()
        },
        cli: &[
            "--app",
            "jacobi",
            "--n",
            "256",
            "--iters",
            "25",
            "--procs",
            "256",
            "--topology",
            "16x16x16",
            "--collectives",
        ],
        golden: 0x70c0_62e5_7ae9_d292,
    },
];

impl Workload {
    /// Look a workload up by name.
    pub fn find(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The simulator configuration, built the way `cni-run` builds it from
    /// [`Workload::cli`]; the layer pass checks the two agree.
    pub fn config(&self, seed: u64) -> Config {
        let mut cfg = (self.shape)(Config::paper_default());
        cfg.seed = seed;
        cfg
    }
}

/// FNV-1a digest of the report's JSON with the tracing fields (`trace`,
/// `stages`) cleared, so a traced and an untraced run of the same
/// configuration digest alike.
pub fn digest(report: &RunReport) -> u64 {
    let mut r = report.clone();
    r.trace = None;
    r.stages = None;
    let json = serde_json::to_string(&r).expect("a RunReport serializes");
    json.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
