//! Layer microprobes: the public call at the heart of each simulator
//! layer, timed alone on the workload's own parameters (page size,
//! Message Cache size, event-queue depth, the DSM pattern set PATHFINDER
//! holds on a CNI board).

use cni::{Config, ProcCtx, World};
use cni_atm::{Reassembler, Segmenter};
use cni_dsm::{Diff, NodeSpace, PageId};
use cni_nic::msgcache::MessageCache;
use cni_pathfinder::{Classifier, FieldTest, Pattern};
use cni_sim::{CoThread, EventQueue, SimTime, Yield};
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One probe's result.
#[derive(Clone, Copy, Debug)]
pub struct Probe {
    /// Operations timed.
    pub ops: u64,
    /// Host nanoseconds per operation.
    pub ns_per_op: f64,
}

impl Probe {
    fn timed(ops: u64, f: impl FnOnce()) -> Probe {
        let t = Instant::now();
        f();
        Probe {
            ops,
            ns_per_op: t.elapsed().as_nanos() as f64 / ops as f64,
        }
    }
}

/// Shared-access hits: `ProcCtx::read_u64` / `write_u64` on resident,
/// writable pages, timed inside the only program of a 1-processor world.
pub fn ctx_hits(cfg: &Config) -> (Probe, Probe) {
    const PAGES: usize = 16;
    const SWEEPS: usize = 64;
    let mut world = World::new(cfg.with_procs(1));
    let page_bytes = cfg.page_bytes;
    let base = world.alloc(PAGES * page_bytes);
    let words = (PAGES * page_bytes / 8) as u64;
    let ops = words * SWEEPS as u64;
    let out: Arc<Mutex<Option<(Probe, Probe)>>> = Arc::default();
    let sink = out.clone();
    let prog: cni::Program = Box::new(move |ctx: &mut ProcCtx<'_>| {
        // Touch every word once so every later access is a hit.
        for w in 0..words {
            ctx.write_u64(base.add(w * 8), w);
        }
        let read = Probe::timed(ops, || {
            let mut acc = 0u64;
            for _ in 0..SWEEPS {
                for w in 0..words {
                    acc ^= ctx.read_u64(base.add(w * 8));
                }
            }
            black_box(acc);
        });
        let write = Probe::timed(ops, || {
            for s in 0..SWEEPS as u64 {
                for w in 0..words {
                    ctx.write_u64(base.add(w * 8), black_box(w ^ s));
                }
            }
        });
        *sink.lock().expect("probe sink unpoisoned") = Some((read, write));
    });
    world.run(vec![prog]);
    let r = out.lock().expect("probe sink unpoisoned").take();
    r.expect("the probe program ran to completion")
}

/// One engine → program → engine round trip through a `CoThread`.
pub fn cothread_roundtrip() -> Probe {
    const N: u64 = 20_000;
    let mut t: CoThread<u64, u64> = CoThread::spawn("probe", |port| {
        let mut x = 0;
        for _ in 0..N {
            x = port.call(x);
        }
    });
    Probe::timed(N, || {
        let mut y = t.start();
        while let Yield::Request(x) = y {
            y = t.resume(black_box(x + 1));
        }
    })
}

/// One `EventQueue` pop plus one schedule, at `depth` pending events.
pub fn queue_push_pop(depth: usize) -> Probe {
    const N: u64 = 400_000;
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut rng: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut delta = move || {
        rng = rng
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        SimTime::from_ns((rng >> 33) % 10_000 + 1)
    };
    for i in 0..depth.max(1) as u64 {
        q.schedule_after(delta(), i);
    }
    Probe::timed(N, || {
        for _ in 0..N {
            let (_, ev) = q.pop().expect("the queue stays at depth");
            q.schedule_after(delta(), black_box(ev));
        }
    })
}

/// AAL5 segmentation and reassembly of one page, per cell.
pub fn aal5(page_bytes: usize) -> (Probe, Probe) {
    const PAGES: u64 = 4_000;
    let seg = Segmenter::standard();
    let page: Vec<u8> = (0..page_bytes).map(|i| i as u8).collect();
    let cells_per_page = seg.segment(9, &page).len() as u64;
    let segment = Probe::timed(PAGES * cells_per_page, || {
        for _ in 0..PAGES {
            black_box(seg.segment(9, black_box(&page)));
        }
    });
    let cells = seg.segment(9, &page);
    let mut rx = Reassembler::new();
    let reassemble = Probe::timed(PAGES * cells_per_page, || {
        for _ in 0..PAGES {
            for cell in &cells {
                if let Some(pdu) = rx.push(cell) {
                    rx.recycle(black_box(pdu.expect("an intact PDU reassembles")));
                }
            }
        }
    });
    (segment, reassemble)
}

/// `Classifier::classify` of DSM protocol headers against the pattern set
/// a CNI board installs (one pattern per protocol kind byte).
pub fn classify() -> Probe {
    const N: u64 = 1_000_000;
    let mut cls: Classifier<u32> = Classifier::new();
    for kind in 0xD0u8..=0xD8 {
        cls.install(Pattern::new(vec![FieldTest::byte(0, kind)]), 1);
    }
    let headers: Vec<[u8; 48]> = (0xD0u8..=0xD8)
        .map(|k| {
            let mut h = [0u8; 48];
            h[0] = k;
            h
        })
        .collect();
    Probe::timed(N, || {
        for i in 0..N as usize {
            black_box(cls.classify(black_box(&headers[i % headers.len()])));
        }
    })
}

/// `MessageCache::lookup_tx` over twice as many pages as the cache holds
/// (half hits, half misses), at the workload's cache geometry.
pub fn msgcache_lookup(cfg: &Config) -> Probe {
    const N: u64 = 1_000_000;
    let buffers = (cfg.nic.msg_cache_bytes / cfg.page_bytes).max(1);
    let mut mc = MessageCache::new(buffers, cfg.nic.rtlb_entries);
    for p in 0..buffers as u64 {
        mc.insert(p);
    }
    let span = 2 * buffers as u64;
    Probe::timed(N, || {
        for i in 0..N {
            black_box(mc.lookup_tx(black_box(i % span)));
        }
    })
}

/// `Diff::create` and `Diff::apply` on one page with a quarter of its
/// words changed.
pub fn diff(cfg: &Config) -> (Probe, Probe) {
    const N: u64 = 20_000;
    let ns = NodeSpace::new(cfg.page_bytes, cfg.nic.cache_line_bytes);
    let frame = ns.page(PageId(0)).frame;
    let words = frame.len();
    for i in 0..words {
        frame.store(i, i as u64);
    }
    let twin = frame.snapshot();
    for i in (0..words).step_by(4) {
        frame.store(i, i as u64 + 1_000_000);
    }
    let create = Probe::timed(N, || {
        for _ in 0..N {
            black_box(Diff::create(black_box(&twin), &frame));
        }
    });
    let d = Diff::create(&twin, &frame);
    let target = ns.page(PageId(1)).frame;
    let apply = Probe::timed(N, || {
        for _ in 0..N {
            black_box(&d).apply(&target);
        }
    });
    (create, apply)
}
