//! Coroutine threads: execution-driven simulated processors.
//!
//! Proteus-style execution-driven simulation runs the *real* application
//! code and intercepts only the operations that have simulated cost or
//! semantics (shared-memory faults, locks, barriers, message sends). Each
//! simulated CPU is a stackful coroutine: it runs on the OS thread of the
//! engine that resumes it, on a stack of its own.
//!
//! * the engine calls [`CoThread::start`]/[`CoThread::resume`], which
//!   switch to the program's stack and run it until the program either
//!   issues its next request via [`Port::call`] or finishes;
//! * [`Port::call`] switches back to the engine's stack, and returns when
//!   the engine resumes the co-thread with the response.
//!
//! At any instant exactly one of {engine, one program} runs, by
//! construction, so the simulation stays deterministic even though
//! application data lives in shared memory. A switch saves the SysV
//! callee-saved registers on the current stack and loads the other
//! stack's pointer (`cni_cothread_switch` below); the kernel is not
//! involved. One engine → program → engine round trip costs about 50 ns
//! on a 2-vCPU x86-64 VM pinned to one CPU (`sim.cothread.roundtrip_ns`
//! from `python3 hostbench/run.py --workload jacobi-1024 --trace 1`).
//! Programs yield only on *simulated communication* and faults, never on
//! ordinary computation or on accesses to valid pages.
//!
//! **Stacks.** Each co-thread gets 2 MiB (std's default thread stack) of
//! lazily committed anonymous memory, with a `PROT_NONE` guard page below
//! it. An overflow therefore kills the process with `SIGSEGV` rather than
//! corrupting a neighbour (std's "stack overflow" message covers only OS
//! thread stacks). The stack is unmapped when the [`CoThread`] is dropped.
//!
//! **Panics.** A program's panic is caught at the bottom of its stack and
//! re-raised on the engine as `co-thread "<name>" panicked: <message>`.
//!
//! **Cancellation.** Dropping a started, unfinished [`CoThread`] switches
//! in once more and makes the pending [`Port::call`] unwind the program
//! with a private payload, so the program's locals are dropped. If the
//! engine is itself unwinding from a panic, a second panic on the same OS
//! thread would abort the process, so the program is not unwound: its
//! stack is unmapped as is, and whatever its live locals own (heap
//! buffers, reference counts) leaks.
//!
//! **Moving between OS threads.** A [`CoThread`] is `Send`: the parallel
//! executor's workers resume co-threads on their own OS threads, so one
//! program can run on several OS threads in turn, switching at
//! [`Port::call`]. A program must therefore not hold anything tied to an
//! OS thread across `Port::call`: no borrow of a `thread_local!` value and
//! no lock guard.

use cni_trace::{TraceEvent, TraceSink};
use std::ffi::{c_int, c_void};
use std::panic::{self, AssertUnwindSafe};
use std::ptr::{self, NonNull};

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!(
    "cni-sim co-threads switch stacks with x86-64 Linux assembly: port \
     `cni_cothread_switch` (with its entry trampoline, the initial frame \
     built in `CoThread::spawn`, and the mmap flags) in \
     crates/sim/src/cothread.rs to this target"
);

/// Usable stack per co-thread: the same as std's default thread stack.
const STACK_BYTES: usize = 2 << 20;
/// The `PROT_NONE` page below each stack.
const GUARD_BYTES: usize = 4096;

// Save the SysV callee-saved state (rbp, rbx, r12–r15, MXCSR, x87 control
// word) on the current stack, store rsp through `save`, load rsp from
// `load` and restore the same state from there. The initial frame that
// `CoThread::spawn` builds has this layout, with the trampoline as the
// return address.
//
// The trampoline is the bottom frame of every co-thread stack: it calls
// the entry function in r13 with the control block in r12 and never
// returns. `.cfi_undefined rip` marks it as the outermost frame, so
// unwinders and `Backtrace` stop there.
std::arch::global_asm!(
    ".text",
    ".balign 16",
    ".globl cni_cothread_switch",
    ".hidden cni_cothread_switch",
    ".type cni_cothread_switch,@function",
    "cni_cothread_switch:",
    "push rbp",
    "push rbx",
    "push r12",
    "push r13",
    "push r14",
    "push r15",
    "sub rsp, 8",
    "stmxcsr dword ptr [rsp]",
    "fnstcw word ptr [rsp + 4]",
    "mov qword ptr [rdi], rsp",
    "mov rsp, rsi",
    "ldmxcsr dword ptr [rsp]",
    "fldcw word ptr [rsp + 4]",
    "add rsp, 8",
    "pop r15",
    "pop r14",
    "pop r13",
    "pop r12",
    "pop rbx",
    "pop rbp",
    "ret",
    ".size cni_cothread_switch, .-cni_cothread_switch",
    "",
    ".balign 16",
    ".globl cni_cothread_trampoline",
    ".hidden cni_cothread_trampoline",
    ".type cni_cothread_trampoline,@function",
    "cni_cothread_trampoline:",
    ".cfi_startproc",
    ".cfi_undefined rip",
    "mov rdi, r12",
    "call r13",
    "ud2",
    ".cfi_endproc",
    ".size cni_cothread_trampoline, .-cni_cothread_trampoline",
);

/// Initial MXCSR (all exceptions masked, round to nearest) and x87
/// control word of a new co-thread: the values the SysV ABI starts a
/// process with.
const MXCSR_INIT: u64 = 0x1F80;
const FPUCW_INIT: u64 = 0x037F;

extern "C" {
    /// Suspend the caller's stack, saving its pointer to `*save`, and
    /// resume the stack whose saved pointer is `load`.
    fn cni_cothread_switch(save: *mut *mut u8, load: *mut u8);
    /// Bottom frame of a co-thread; only ever entered by the first switch.
    fn cni_cothread_trampoline();

    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        off: i64,
    ) -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
}

const PROT_NONE: c_int = 0;
const PROT_READ: c_int = 1;
const PROT_WRITE: c_int = 2;
const MAP_PRIVATE: c_int = 0x02;
const MAP_ANONYMOUS: c_int = 0x20;
const MAP_NORESERVE: c_int = 0x4000;
const MAP_STACK: c_int = 0x20000;

/// One co-thread's stack mapping: a guard page, then [`STACK_BYTES`].
struct Stack {
    base: NonNull<c_void>,
}

impl Stack {
    const LEN: usize = GUARD_BYTES + STACK_BYTES;

    fn new() -> Stack {
        // SAFETY: a fresh anonymous private mapping at an address the
        // kernel chooses; no existing memory is touched.
        let p = unsafe {
            mmap(
                ptr::null_mut(),
                Self::LEN,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                -1,
                0,
            )
        };
        // mmap reports failure as MAP_FAILED, i.e. (void *)-1.
        if p as usize == usize::MAX {
            panic!(
                "co-thread stack mmap failed: {}",
                std::io::Error::last_os_error()
            );
        }
        let base = NonNull::new(p).expect("mmap never returns null without MAP_FIXED");
        // SAFETY: the first page lies inside the mapping made above, which
        // nothing references yet.
        let rc = unsafe { mprotect(p, GUARD_BYTES, PROT_NONE) };
        assert_eq!(
            rc,
            0,
            "co-thread guard page mprotect failed: {}",
            std::io::Error::last_os_error()
        );
        Stack { base }
    }

    /// One past the highest byte of the stack (page-aligned).
    fn top(&self) -> *mut u8 {
        self.base.as_ptr().cast::<u8>().wrapping_add(Self::LEN)
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: `base..base+LEN` is the mapping `new` made; the owning
        // CoThread drops its Stack only once no code runs on it.
        // munmap of a valid mapping cannot fail; nothing to do if it did.
        let _ = unsafe { munmap(self.base.as_ptr(), Self::LEN) };
    }
}

/// What a resumed co-thread handed back to the engine.
#[derive(Debug, PartialEq, Eq)]
pub enum Yield<Req> {
    /// The program issued a request and is now blocked awaiting the
    /// response.
    Request(Req),
    /// The program ran to completion.
    Finished,
}

enum Wire<Req> {
    Request(Req),
    /// The program returned, or was cancelled and unwound.
    Finished,
    Panicked(String),
}

/// Private panic payload used to unwind a cancelled program.
struct Cancelled;

type Program<Req, Resp> = Box<dyn FnOnce(&mut Port<Req, Resp>) + Send>;

/// State shared by the engine and one co-thread. It is reached only
/// through a raw pointer, by whichever side is running; the other side is
/// suspended inside `cni_cothread_switch`.
struct Inner<Req, Resp> {
    /// The engine's stack pointer while the co-thread runs.
    engine_sp: *mut u8,
    /// The co-thread's stack pointer while it is suspended.
    co_sp: *mut u8,
    program: Option<Program<Req, Resp>>,
    /// The response to the pending `Port::call`. `Drop` resumes the
    /// co-thread without one, which cancels it.
    to_program: Option<Resp>,
    to_engine: Option<Wire<Req>>,
}

/// The program-side endpoint: issue simulated-service requests with
/// [`Port::call`].
pub struct Port<Req, Resp> {
    inner: *mut Inner<Req, Resp>,
}

impl<Req, Resp> Port<Req, Resp> {
    /// Hand `req` to the engine and block until it responds.
    ///
    /// If the engine drops the [`CoThread`] (simulation aborted), this
    /// unwinds the program instead of returning; the unwind is caught at
    /// the bottom of the co-thread's stack and the program ends quietly.
    pub fn call(&mut self, req: Req) -> Resp {
        let inner = self.inner;
        // SAFETY: a Port lives only on its running co-thread's stack, so
        // `inner` is live and the engine is suspended in `switch_in`; once
        // the switch returns, the engine is suspended again.
        let resp = unsafe {
            (*inner).to_engine = Some(Wire::Request(req));
            cni_cothread_switch(&raw mut (*inner).co_sp, (*inner).engine_sp);
            (*inner).to_program.take()
        };
        match resp {
            Some(resp) => resp,
            None => panic::resume_unwind(Box::new(Cancelled)),
        }
    }
}

/// First Rust frame on a co-thread's stack, entered from the trampoline.
///
/// # Safety
/// `inner` must be the live control block of the co-thread whose stack
/// this runs on, entered by `CoThread::switch_in`.
// SAFETY: see `# Safety`; only `CoThread::spawn` installs this function,
// for its own control block.
unsafe extern "C" fn entry<Req, Resp>(inner: *mut Inner<Req, Resp>) -> ! {
    // Everything the program owns is dropped before `run` returns, so
    // nothing on this stack needs to run again.
    let exit = run(inner);
    // SAFETY: as for `Port::call`: the engine is suspended in `switch_in`.
    unsafe {
        (*inner).to_engine = Some(exit);
        cni_cothread_switch(&raw mut (*inner).co_sp, (*inner).engine_sp);
    }
    // The engine never switches into a finished co-thread.
    std::process::abort()
}

fn run<Req, Resp>(inner: *mut Inner<Req, Resp>) -> Wire<Req> {
    // SAFETY: called only from `entry`, under its contract.
    let program = unsafe { (*inner).program.take() }.expect("a co-thread is entered once");
    let mut port = Port { inner };
    match panic::catch_unwind(AssertUnwindSafe(move || program(&mut port))) {
        Ok(()) => Wire::Finished,
        Err(payload) if payload.is::<Cancelled>() => Wire::Finished,
        Err(payload) => Wire::Panicked(
            payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string()),
        ),
    }
}

/// Engine-side handle to a suspended program.
pub struct CoThread<Req, Resp> {
    /// From `Box::leak` in `spawn`; freed in `Drop`.
    inner: NonNull<Inner<Req, Resp>>,
    /// Unmapped when dropped, after `Drop::drop` is done with the co-thread.
    _stack: Stack,
    name: String,
    started: bool,
    finished: bool,
    trace: TraceSink,
    cpu: u32,
}

// A CoThread owns its control block, its stack and the program suspended
// on that stack; the only other pointer to any of them is the program's
// own `Port`, which lives on that stack. Moving the CoThread to another OS
// thread moves all of it. The boxed program is `Send`, and the `Req` and
// `Resp` values in the control block are `Send` by the bounds below. The
// program runs only while the thread that resumed it is suspended in
// `switch_in`, so two OS threads never run it at once, and handing the
// CoThread between threads already orders their accesses. What the
// compiler cannot check is the program's own frames: a value on them that
// is tied to an OS thread would be used from another one after a resume
// from elsewhere.
// SAFETY: by the argument above, given the module contract that a program
// holds no thread-local borrow or lock guard across `Port::call`.
unsafe impl<Req: Send, Resp: Send> Send for CoThread<Req, Resp> {}

impl<Req: Send + 'static, Resp: Send + 'static> CoThread<Req, Resp> {
    /// Create a co-thread for `program`. The program does not begin running
    /// until [`CoThread::start`] is called.
    pub fn spawn<F>(name: &str, program: F) -> Self
    where
        F: FnOnce(&mut Port<Req, Resp>) + Send + 'static,
    {
        let stack = Stack::new();
        let inner = NonNull::from(Box::leak(Box::new(Inner {
            engine_sp: ptr::null_mut(),
            co_sp: ptr::null_mut(),
            program: Some(Box::new(program) as Program<Req, Resp>),
            to_program: None,
            to_engine: None,
        })));
        // SAFETY: fn-pointer types only, nothing is called here. The first
        // `switch_in` enters the trampoline, which calls `entry` with this
        // co-thread's own control block, as `entry` requires.
        let entry: unsafe extern "C" fn(*mut Inner<Req, Resp>) -> ! = entry::<Req, Resp>;
        // SAFETY: as above; only `cni_cothread_switch` enters it.
        let trampoline: unsafe extern "C" fn() = cni_cothread_trampoline;
        // The frame `cni_cothread_switch` pops on the first switch in, from
        // the lowest address: MXCSR and x87 control word, r15, r14, r13,
        // r12, rbx, rbp, return address. `sp` is 16-byte aligned, so the
        // trampoline starts with rsp = sp + 64 aligned and its `call`
        // enters `entry` with the alignment the ABI requires.
        let frame: [u64; 8] = [
            MXCSR_INIT | FPUCW_INIT << 32,
            0,
            0,
            entry as usize as u64,
            inner.as_ptr() as u64,
            0,
            0,
            trampoline as usize as u64,
        ];
        let sp = stack.top().wrapping_sub(16 + size_of_val(&frame));
        // SAFETY: `sp..sp+64` lies in the writable part of the fresh
        // mapping (16 bytes below its top) and is 16-byte aligned.
        unsafe { sp.cast::<[u64; 8]>().write(frame) };
        // SAFETY: `inner` came from `Box::leak` above; nothing else has it.
        unsafe { (*inner.as_ptr()).co_sp = sp };
        CoThread {
            inner,
            _stack: stack,
            name: name.to_string(),
            started: false,
            finished: false,
            trace: TraceSink::Disabled,
            cpu: 0,
        }
    }

    /// Attach a trace sink: every engine↔program control transfer records a
    /// `CothreadSwitch` event tagged with `cpu` (the simulated processor
    /// id, also used as the trace's node id).
    pub fn set_trace(&mut self, trace: TraceSink, cpu: u32) {
        self.trace = trace;
        self.cpu = cpu;
    }

    /// Begin executing the program; returns at its first yield.
    ///
    /// # Panics
    /// Panics if called twice, or if the program panics before yielding.
    pub fn start(&mut self) -> Yield<Req> {
        assert!(!self.started, "co-thread {:?} already started", self.name);
        self.started = true;
        self.wait()
    }

    /// Deliver `resp` to the program's pending [`Port::call`] and run it
    /// until its next yield.
    ///
    /// # Panics
    /// Panics if the program has not started, has already finished, or
    /// panics while running.
    pub fn resume(&mut self, resp: Resp) -> Yield<Req> {
        assert!(self.started, "co-thread {:?} not started", self.name);
        assert!(!self.finished, "co-thread {:?} already finished", self.name);
        // SAFETY: the co-thread is suspended, so the engine has sole access.
        unsafe { (*self.inner.as_ptr()).to_program = Some(resp) };
        self.wait()
    }

    fn wait(&mut self) -> Yield<Req> {
        self.trace.emit(
            self.cpu,
            TraceEvent::CothreadSwitch {
                cpu: self.cpu,
                enter: true,
            },
        );
        let y = match self.switch_in() {
            Wire::Request(req) => Yield::Request(req),
            Wire::Finished => {
                self.finished = true;
                Yield::Finished
            }
            Wire::Panicked(msg) => {
                self.finished = true;
                panic!("co-thread {:?} panicked: {msg}", self.name)
            }
        };
        self.trace.emit(
            self.cpu,
            TraceEvent::CothreadSwitch {
                cpu: self.cpu,
                enter: false,
            },
        );
        y
    }

    /// True once the program has run to completion.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// The name given at spawn time.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl<Req, Resp> CoThread<Req, Resp> {
    /// Run the co-thread until it posts its next message, and take it.
    /// Callers ensure the co-thread has not finished.
    fn switch_in(&mut self) -> Wire<Req> {
        let inner = self.inner.as_ptr();
        // The co-thread is unfinished, so `co_sp` is either the initial
        // frame `spawn` built or the pointer it saved when it last
        // suspended, and its stack (owned by `self`) is intact.
        // SAFETY: by the above; the switch saves this thread's stack pointer
        // in `engine_sp`, which is where the co-thread switches back to.
        unsafe {
            cni_cothread_switch(&raw mut (*inner).engine_sp, (*inner).co_sp);
            (*inner).to_engine.take()
        }
        .expect("a co-thread suspends only after posting a message")
    }
}

impl<Req, Resp> Drop for CoThread<Req, Resp> {
    fn drop(&mut self) {
        if self.started && !self.finished && !std::thread::panicking() {
            // Resumed without a response, the pending `Port::call` unwinds.
            // A program that catches the unwind and calls again is unwound
            // again; how it then ends (return or panic) is not reported.
            while let Wire::Request(_) = self.switch_in() {}
        }
        // SAFETY: `inner` came from `Box::leak` in `spawn` and is freed
        // only here; the co-thread that also points to it has finished or
        // is abandoned, and never runs again.
        drop(unsafe { Box::from_raw(self.inner.as_ptr()) });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_response_roundtrip() {
        let mut co: CoThread<u32, u32> = CoThread::spawn("adder", |port| {
            let mut acc = 0;
            for i in 0..5u32 {
                acc = port.call(acc + i);
            }
            assert_eq!(acc, 1 + 2 + 3 + 4);
        });
        let mut y = co.start();
        let mut sum = 0;
        while let Yield::Request(v) = y {
            sum = v;
            y = co.resume(v);
        }
        assert_eq!(sum, 10);
        assert!(co.is_finished());
    }

    #[test]
    fn finishes_without_requests() {
        let mut co: CoThread<(), ()> = CoThread::spawn("noop", |_port| {});
        assert_eq!(co.start(), Yield::Finished);
    }

    #[test]
    fn program_does_not_run_before_start() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let flag = Arc::new(AtomicBool::new(false));
        let f2 = flag.clone();
        let mut co: CoThread<(), ()> = CoThread::spawn("lazy", move |_port| {
            f2.store(true, Ordering::SeqCst);
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!flag.load(Ordering::SeqCst), "ran before start()");
        assert_eq!(co.start(), Yield::Finished);
        assert!(flag.load(Ordering::SeqCst));
    }

    #[test]
    fn drop_cancels_unstarted() {
        let co: CoThread<u32, u32> = CoThread::spawn("never", |port| {
            port.call(1);
            unreachable!("must not run");
        });
        drop(co); // must not hang or panic
    }

    #[test]
    fn drop_cancels_mid_flight() {
        let mut co: CoThread<u32, u32> = CoThread::spawn("cancelled", |port| {
            let _ = port.call(1);
            let _ = port.call(2);
            unreachable!("second call must cancel");
        });
        match co.start() {
            Yield::Request(1) => {}
            other => panic!("unexpected yield {:?}", other),
        }
        let y = co.resume(0);
        assert_eq!(y, Yield::Request(2));
        drop(co); // program blocked in call(2); drop must unwind it cleanly
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn program_panic_propagates() {
        let mut co: CoThread<u32, u32> = CoThread::spawn("bomb", |_port| {
            panic!("boom");
        });
        let _ = co.start();
    }

    #[test]
    #[should_panic(expected = "already finished")]
    fn resume_after_finish_panics() {
        let mut co: CoThread<u32, u32> = CoThread::spawn("done", |_port| {});
        assert_eq!(co.start(), Yield::Finished);
        let _ = co.resume(0);
    }

    #[test]
    fn many_cothreads_interleave_deterministically() {
        // Round-robin 8 co-threads, each yielding its own sequence; the
        // collected trace must be identical across repeated runs.
        fn run_once() -> Vec<(usize, u32)> {
            let mut cos: Vec<CoThread<u32, u32>> = (0..8)
                .map(|id| {
                    CoThread::spawn(&format!("w{id}"), move |port| {
                        for k in 0..10u32 {
                            port.call(id as u32 * 100 + k);
                        }
                    })
                })
                .collect();
            let mut trace = Vec::new();
            let mut pending: Vec<Option<Yield<u32>>> =
                cos.iter_mut().map(|c| Some(c.start())).collect();
            loop {
                let mut progressed = false;
                for (i, co) in cos.iter_mut().enumerate() {
                    if let Some(Yield::Request(v)) = pending[i].take() {
                        trace.push((i, v));
                        pending[i] = Some(co.resume(v));
                        progressed = true;
                    }
                }
                if !progressed {
                    break;
                }
            }
            trace
        }
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn drop_mid_flight_runs_program_destructors() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        struct Counted(Arc<AtomicUsize>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let d2 = drops.clone();
        let mut co: CoThread<u32, u32> = CoThread::spawn("locals", move |port| {
            let _outer = Counted(d2.clone());
            let _inner = Counted(d2);
            port.call(1);
            unreachable!("the call must cancel");
        });
        assert_eq!(co.start(), Yield::Request(1));
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        drop(co);
        assert_eq!(drops.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn resumes_from_another_os_thread() {
        let mut co: CoThread<u32, u32> = CoThread::spawn("migrant", |port| {
            let mut x = port.call(0);
            for _ in 0..3 {
                x = port.call(x + 1);
            }
            assert_eq!(x, 13);
        });
        assert_eq!(co.start(), Yield::Request(0));
        // A parallel-executor worker resumes the co-thread next.
        std::thread::scope(|s| {
            s.spawn(|| {
                assert_eq!(co.resume(10), Yield::Request(11));
            })
            .join()
            .expect("worker resumes without panicking");
        });
        assert_eq!(co.resume(11), Yield::Request(12));
        std::thread::scope(|s| {
            s.spawn(|| {
                assert_eq!(co.resume(12), Yield::Request(13));
                assert_eq!(co.resume(13), Yield::Finished);
            });
        });
        assert!(co.is_finished());
    }

    #[test]
    fn program_can_use_a_mebibyte_of_stack() {
        #[inline(never)]
        fn fill(depth: u32) -> u64 {
            let mut buf = [0u8; 64 * 1024];
            buf[depth as usize] = depth as u8 + 1;
            std::hint::black_box(&mut buf);
            let below = if depth == 0 { 0 } else { fill(depth - 1) };
            below + u64::from(buf[depth as usize])
        }
        let mut co: CoThread<u64, ()> = CoThread::spawn("deep", |port| {
            // 16 frames of 64 KiB each.
            port.call(fill(15));
        });
        assert_eq!(co.start(), Yield::Request((1..=16).sum()));
        assert_eq!(co.resume(()), Yield::Finished);
    }

    #[test]
    fn backtrace_inside_program_formats() {
        let mut co: CoThread<usize, ()> = CoThread::spawn("traced", |port| {
            let bt = std::backtrace::Backtrace::force_capture();
            port.call(format!("{bt}").len());
        });
        match co.start() {
            Yield::Request(len) => assert!(len > 0),
            other => panic!("unexpected yield {other:?}"),
        }
        assert_eq!(co.resume(()), Yield::Finished);
    }

    #[test]
    fn many_cothreads_spawn_interleave_and_drop() {
        let mut cos: Vec<CoThread<u32, u32>> = (0..256u32)
            .map(|id| {
                CoThread::spawn(&format!("cpu{id}"), move |port| {
                    let mut x = id;
                    for _ in 0..(id % 4) {
                        x = port.call(x);
                    }
                })
            })
            .collect();
        let mut pending: Vec<Yield<u32>> = cos.iter_mut().map(|c| c.start()).collect();
        // Two rounds: co-threads with fewer calls finish, the rest are
        // dropped mid-flight.
        for _ in 0..2 {
            for (co, y) in cos.iter_mut().zip(pending.iter_mut()) {
                if let Yield::Request(v) = *y {
                    *y = co.resume(v + 1);
                }
            }
        }
        let unfinished = cos.iter().filter(|c| !c.is_finished()).count();
        assert_eq!(unfinished, 64, "ids with id % 4 == 3 still wait");
        drop(cos);
    }
}
