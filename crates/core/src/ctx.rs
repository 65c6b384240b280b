//! The application programming interface: what a simulated processor's
//! program sees.
//!
//! A program is a closure receiving a [`ProcCtx`]. Shared-memory reads and
//! writes take the fast path and only *yield* to the simulation engine on
//! faults, synchronisation, message passing, and at termination.
//! Computation is charged with [`ProcCtx::compute`] and batched locally, so
//! the handshake cost is paid per simulated *communication event*, not per
//! arithmetic operation (the execution-driven trade Proteus made).
//!
//! The fast path is one division to split the address into page and
//! offset, an index into the context's dense page table, a relaxed load of
//! the page's access state, and the word access itself (a write also sets
//! the line's dirty bit). The table holds one [`PageHandle`] slot per page
//! id; a slot fills from [`NodeSpace::page`] on the page's first touch on
//! this processor and is never refilled, because a node space never
//! replaces a page's frame or flags. Protocol actions (invalidation,
//! upgrades, page and diff replies) change the state and words *behind*
//! the handle, so a cached handle always sees them.

use cni_dsm::NodeSpace;
use cni_dsm::{access, LockId, PageHandle, PageId, VAddr};
use cni_sim::Port;
use std::sync::Arc;

/// Operations that reach the simulation engine.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// Shared read faulted on `page`.
    ReadFault(PageId),
    /// Shared write faulted on `page`.
    WriteFault(PageId),
    /// Acquire a DSM lock.
    Acquire(LockId),
    /// Release a DSM lock.
    Release(LockId),
    /// Arrive at the global barrier.
    Barrier,
    /// Send an application-level message (message-passing paradigm).
    SendTo {
        /// Destination processor.
        dst: u32,
        /// Payload length in bytes.
        len: u32,
        /// Backing page, if the payload is a page-sized buffer (enables
        /// transmit caching).
        page: Option<u64>,
        /// Message-header cache bit.
        cacheable: bool,
        /// Dirty host-cache lines to flush before the board may read the
        /// buffer.
        dirty_lines: u32,
        /// Payload words, if the receiver needs the data (execution-driven
        /// message passing); `None` for timing-only traffic.
        data: Option<Arc<Vec<u64>>>,
    },
    /// Spin-wait politely: charge synchronisation-overhead cycles without
    /// calling them computation (bag-of-tasks pollers).
    Backoff(u64),
    /// Block until an application-level message arrives.
    Recv,
    /// Program finished (issued automatically).
    Done,
}

/// A yield to the engine: accumulated computation plus the operation.
#[derive(Clone, Debug)]
pub struct YieldMsg {
    /// Host CPU cycles of computation since the last yield.
    pub pending_cycles: u64,
    /// The operation.
    pub op: Op,
}

/// The engine's reply to a yield.
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    /// Operation complete.
    Ok,
    /// A message was received (reply to [`Op::Recv`]).
    Received {
        /// Sending processor.
        src: u32,
        /// Payload length in bytes.
        len: u32,
        /// Payload words, when the sender attached data.
        data: Option<Arc<Vec<u64>>>,
    },
}

/// Per-access fast-path costs (host cycles), captured from the cluster
/// configuration.
#[derive(Clone, Copy, Debug)]
pub struct AccessCosts {
    /// Cycles per fault-free shared read.
    pub read: u64,
    /// Cycles per fault-free shared write.
    pub write: u64,
}

/// The program-side context for one simulated processor.
pub struct ProcCtx<'a> {
    me: u32,
    procs: u32,
    page_bytes: usize,
    /// log2 of the cache-line size: line index = page offset >> line_shift.
    line_shift: u32,
    costs: AccessCosts,
    space: Arc<NodeSpace>,
    /// Dense page table, indexed by page id; `None` until first touch.
    pages: Vec<Option<PageHandle>>,
    pending: u64,
    port: &'a mut Port<YieldMsg, Reply>,
}

impl<'a> ProcCtx<'a> {
    /// Engine-side constructor (used by the world's program wrapper).
    ///
    /// # Panics
    /// Panics unless `line_bytes` is a power of two (as [`NodeSpace::new`]
    /// also requires).
    pub fn new(
        me: u32,
        procs: u32,
        page_bytes: usize,
        line_bytes: usize,
        costs: AccessCosts,
        space: Arc<NodeSpace>,
        port: &'a mut Port<YieldMsg, Reply>,
    ) -> Self {
        assert!(
            line_bytes.is_power_of_two(),
            "cache lines must be a power of two"
        );
        ProcCtx {
            me,
            procs,
            page_bytes,
            line_shift: line_bytes.trailing_zeros(),
            costs,
            space,
            pages: Vec::new(),
            pending: 0,
            port,
        }
    }

    /// This processor's id.
    #[inline]
    pub fn id(&self) -> u32 {
        self.me
    }

    /// Cluster size.
    #[inline]
    pub fn procs(&self) -> u32 {
        self.procs
    }

    /// Shared page size in bytes.
    #[inline]
    pub fn page_bytes(&self) -> usize {
        self.page_bytes
    }

    /// Charge `cycles` of computation.
    #[inline]
    pub fn compute(&mut self, cycles: u64) {
        self.pending += cycles;
    }

    fn yield_op(&mut self, op: Op) -> Reply {
        let pending = std::mem::take(&mut self.pending);
        self.port.call(YieldMsg {
            pending_cycles: pending,
            op,
        })
    }

    /// The handle of `page`, borrowed from the page table. A page's first
    /// touch on this processor fetches its handle from the node space;
    /// every later access is an index into the table, with no hashing and
    /// no reference-count traffic.
    #[inline]
    fn handle(&mut self, page: u32) -> &PageHandle {
        let i = page as usize;
        if matches!(self.pages.get(i), Some(Some(_))) {
            // Re-indexed so the borrow returned is not tied to the check.
            return self.pages[i].as_ref().expect("just checked");
        }
        self.fill(i)
    }

    /// Slow path of [`ProcCtx::handle`]: grow the table to cover page `i`
    /// and fill its slot.
    #[cold]
    #[inline(never)]
    fn fill(&mut self, i: usize) -> &PageHandle {
        if i >= self.pages.len() {
            self.pages.resize(i + 1, None);
        }
        let space = &self.space;
        self.pages[i].get_or_insert_with(|| space.page(PageId(i as u32)))
    }

    /// Split `addr` into its page and the byte offset within the page.
    #[inline]
    fn split(&self, addr: VAddr) -> (PageId, usize) {
        (addr.page(self.page_bytes), addr.offset(self.page_bytes))
    }

    /// Read a shared 64-bit word. Faults transparently.
    #[inline]
    pub fn read_u64(&mut self, addr: VAddr) -> u64 {
        let (page, off) = self.split(addr);
        loop {
            let h = self.handle(page.0);
            if h.flags.state() != access::INVALID {
                let v = h.frame.load(off / 8);
                self.pending += self.costs.read;
                return v;
            }
            self.yield_op(Op::ReadFault(page));
        }
    }

    /// Write a shared 64-bit word. Faults transparently and records the
    /// dirty cache line for the flush model.
    #[inline]
    pub fn write_u64(&mut self, addr: VAddr, v: u64) {
        let (page, off) = self.split(addr);
        let line = off >> self.line_shift;
        loop {
            let h = self.handle(page.0);
            if h.flags.state() == access::WRITE {
                h.frame.store(off / 8, v);
                h.flags.mark_dirty(line);
                self.pending += self.costs.write;
                return;
            }
            self.yield_op(Op::WriteFault(page));
        }
    }

    /// Read a shared `f64`.
    #[inline]
    pub fn read_f64(&mut self, addr: VAddr) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    /// Write a shared `f64`.
    #[inline]
    pub fn write_f64(&mut self, addr: VAddr, v: f64) {
        self.write_u64(addr, v.to_bits());
    }

    /// Acquire a DSM lock (blocks in virtual time).
    pub fn acquire(&mut self, lock: LockId) {
        self.yield_op(Op::Acquire(lock));
    }

    /// Release a DSM lock (closes the interval: diffs + write notices).
    pub fn release(&mut self, lock: LockId) {
        self.yield_op(Op::Release(lock));
    }

    /// Cross the global barrier.
    pub fn barrier(&mut self) {
        self.yield_op(Op::Barrier);
    }

    /// Spin politely for `cycles` host cycles: the time is charged as
    /// synchronisation overhead, not computation (idle task-queue polling
    /// must not inflate the computation bucket of Tables 2–4).
    pub fn backoff(&mut self, cycles: u64) {
        self.yield_op(Op::Backoff(cycles));
    }

    /// Send an application-level message of `len` bytes to `dst`.
    /// `dirty_lines` models how much of the buffer sits dirty in the host
    /// cache (flushed before transmission, per the write-back discipline).
    pub fn send_to(
        &mut self,
        dst: u32,
        len: u32,
        page: Option<u64>,
        cacheable: bool,
        dirty_lines: u32,
    ) {
        assert!(dst < self.procs && dst != self.me, "bad destination");
        self.yield_op(Op::SendTo {
            dst,
            len,
            page,
            cacheable,
            dirty_lines,
            data: None,
        });
    }

    /// Send an application-level message carrying `data` (one simulated
    /// byte of payload per... precisely `data.len() * 8` bytes) to `dst`.
    /// This is the execution-driven message-passing path: the receiver's
    /// [`ProcCtx::recv_data`] gets the actual words.
    pub fn send_data(
        &mut self,
        dst: u32,
        data: Vec<u64>,
        page: Option<u64>,
        cacheable: bool,
        dirty_lines: u32,
    ) {
        assert!(dst < self.procs && dst != self.me, "bad destination");
        let len = (data.len() * 8) as u32;
        self.yield_op(Op::SendTo {
            dst,
            len,
            page,
            cacheable,
            dirty_lines,
            data: Some(Arc::new(data)),
        });
    }

    /// Block until an application-level message arrives; returns
    /// (sender, length).
    pub fn recv(&mut self) -> (u32, u32) {
        match self.yield_op(Op::Recv) {
            Reply::Received { src, len, .. } => (src, len),
            Reply::Ok => panic!("engine replied Ok to Recv"),
        }
    }

    /// Block until an application-level message arrives; returns the
    /// sender and the payload words (empty if the sender attached none).
    pub fn recv_data(&mut self) -> (u32, Arc<Vec<u64>>) {
        match self.yield_op(Op::Recv) {
            Reply::Received { src, data, .. } => {
                (src, data.unwrap_or_else(|| Arc::new(Vec::new())))
            }
            Reply::Ok => panic!("engine replied Ok to Recv"),
        }
    }

    /// Flush accumulated computation and signal completion. Called by the
    /// program wrapper after the user closure returns.
    pub fn finish(&mut self) {
        self.yield_op(Op::Done);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cni_dsm::SHARED_BASE;
    use cni_sim::{CoThread, Yield};

    const LINE: usize = 32;

    fn addr(page_bytes: usize, page: u32, off: usize) -> VAddr {
        VAddr::of_page(PageId(page), page_bytes).add(off as u64)
    }

    /// Run `prog` on one processor's context over `space`, answering its
    /// yields the way the protocol would: a read fault makes the page
    /// readable, a write fault makes it writable, and a barrier hands the
    /// space to `at_barrier` (standing in for what the protocol does
    /// there). Returns the faults in the order they were raised; a
    /// context that keeps faulting on a page already granted fails the
    /// test instead of spinning.
    fn run(
        space: &Arc<NodeSpace>,
        prog: impl FnOnce(&mut ProcCtx<'_>) + Send + 'static,
        mut at_barrier: impl FnMut(&NodeSpace),
    ) -> Vec<Op> {
        let page_bytes = space.page_bytes();
        let ctx_space = Arc::clone(space);
        let mut cpu = CoThread::<YieldMsg, Reply>::spawn("cpu0", move |port| {
            let costs = AccessCosts { read: 1, write: 2 };
            let mut ctx = ProcCtx::new(0, 1, page_bytes, LINE, costs, ctx_space, port);
            prog(&mut ctx);
            ctx.finish();
        });
        let mut faults = Vec::new();
        let mut y = cpu.start();
        while let Yield::Request(msg) = y {
            assert!(faults.len() < 64, "fault loop: {:?}", &faults[..8]);
            match msg.op {
                Op::ReadFault(p) => {
                    space.page(p).flags.set_state(access::READ);
                    faults.push(msg.op);
                }
                Op::WriteFault(p) => {
                    space.page(p).flags.set_state(access::WRITE);
                    faults.push(msg.op);
                }
                Op::Barrier => at_barrier(space),
                Op::Done => {}
                other => panic!("unexpected yield {other:?}"),
            }
            y = cpu.resume(Reply::Ok);
        }
        faults
    }

    #[test]
    fn descending_and_sparse_pages_fault_once_and_hit_the_node_frames() {
        let space = Arc::new(NodeSpace::new(2048, LINE));
        let order = [9u32, 4, 0, 1000];
        let faults = run(
            &space,
            move |ctx| {
                for &p in &order {
                    ctx.write_u64(addr(2048, p, 8), u64::from(p) + 1);
                }
                // Every page again, in the other direction: table hits only.
                for &p in order.iter().rev() {
                    assert_eq!(ctx.read_u64(addr(2048, p, 8)), u64::from(p) + 1);
                }
                assert_eq!(ctx.read_u64(addr(2048, 500, 0)), 0);
            },
            |_| {},
        );
        let mut want: Vec<Op> = order.iter().map(|&p| Op::WriteFault(PageId(p))).collect();
        want.push(Op::ReadFault(PageId(500)));
        assert_eq!(faults, want);
        for &p in &order {
            assert_eq!(space.page(PageId(p)).frame.load(1), u64::from(p) + 1);
        }
        assert_eq!(space.frames(), order.len() + 1);
    }

    #[test]
    fn non_power_of_two_page_splits_by_division() {
        // 2056 B = 257 words: 64 whole lines and a partial 65th.
        let space = Arc::new(NodeSpace::new(2056, LINE));
        let faults = run(
            &space,
            |ctx| {
                assert_eq!(ctx.page_bytes(), 2056);
                // The last word of page 0 and the first of page 1 are
                // neighbours in the address space.
                let last = addr(2056, 0, 2048);
                assert_eq!(last.add(8), addr(2056, 1, 0));
                ctx.write_u64(last, 11);
                ctx.write_u64(last.add(8), 12);
                ctx.write_u64(VAddr(SHARED_BASE + 3 * 2056 + 1000), 13);
                assert_eq!(ctx.read_u64(last), 11);
            },
            |_| {},
        );
        let touched = [0u32, 1, 3].map(|p| Op::WriteFault(PageId(p)));
        assert_eq!(faults, touched);
        let p0 = space.page(PageId(0));
        assert_eq!(p0.frame.len(), 257);
        assert_eq!(p0.frame.load(256), 11);
        assert_eq!(space.page(PageId(1)).frame.load(0), 12);
        assert_eq!(space.page(PageId(3)).frame.load(125), 13);
        assert_eq!(p0.flags.take_dirty_lines(), 1, "the partial last line");
    }

    #[test]
    fn invalidated_page_faults_again_through_a_cached_handle() {
        let space = Arc::new(NodeSpace::new(2048, LINE));
        let faults = run(
            &space,
            |ctx| {
                let a = addr(2048, 2, 0);
                ctx.read_u64(a);
                ctx.read_u64(a);
                ctx.write_u64(a, 5);
                ctx.barrier();
                // The protocol invalidated page 2 and installed a newer
                // copy behind the handle the table already holds.
                assert_eq!(ctx.read_u64(a), 6);
                ctx.read_u64(a);
            },
            |ns| {
                let h = ns.page(PageId(2));
                h.flags.set_state(access::INVALID);
                h.frame.store(0, 6);
            },
        );
        assert_eq!(
            faults,
            [
                Op::ReadFault(PageId(2)),
                Op::WriteFault(PageId(2)),
                Op::ReadFault(PageId(2)),
            ]
        );
    }

    #[test]
    fn dirty_bits_cover_the_first_and_last_line() {
        let space = Arc::new(NodeSpace::new(2048, LINE));
        run(
            &space,
            |ctx| {
                ctx.write_u64(addr(2048, 0, 0), 1);
                ctx.write_u64(addr(2048, 0, 24), 2); // same line as offset 0
                ctx.write_u64(addr(2048, 0, 32), 3); // line 1
                ctx.write_u64(addr(2048, 0, 2040), 4); // line 63
                ctx.write_u64(addr(2048, 1, 32), 5); // line 1 of the next page
            },
            |_| {},
        );
        let p0 = space.page(PageId(0));
        assert_eq!(p0.flags.dirty_lines(), 3);
        assert_eq!(p0.flags.take_dirty_lines(), 3);
        assert_eq!(p0.flags.take_dirty_lines(), 0);
        assert_eq!(space.page(PageId(1)).flags.take_dirty_lines(), 1);
    }
}
