//! The reference clock: how fast the processor ran while an op was timed.
//!
//! The machine is a shared host. A core changes its clock frequency with the load of
//! its neighbours, and it shares its execution units and first-level caches with
//! whatever runs on its sibling hardware thread. Both slow a run of the same code by
//! 5 to 30 %, in phases that last seconds to minutes: longer than any statistic over
//! the repetitions of an op can see past. The benchmark therefore measures the
//! processor next to the ops. Between the batches of every period of the op sequence
//! it times a fixed piece of work of its own, small enough to live in the first-level
//! cache and shaped like the programs under test (a register machine interpreting a
//! fixed instruction sequence: dispatch, dependent arithmetic, loads, stores and
//! data-dependent branches). The time a step of that machine took is the pace of the
//! period, and the period's processor time is reported as the time it would have
//! taken at the reference pace. Time the thread slept or was blocked is counted as
//! it is; time it was runnable while another process of the machine had the processor
//! (the `run_delay` of `/proc/thread-self/schedstat`) is not counted.
//!
//! Nothing in the repository can change what a step costs: the machine is this file.

use std::hint::black_box;
use std::time::Instant;

/// Steps of the register machine in one sample (about 70 µs).
const SAMPLE_STEPS: u32 = 30_000;
/// Instructions of the machine's fixed program.
const CODE_LEN: usize = 64;
/// Words of the machine's data memory: 32 KiB, most of a first-level data cache, so
/// that a neighbour on the sibling hardware thread shows in the machine's pace as it
/// shows in an interpreter's.
const MEMORY_WORDS: usize = 4096;
/// The reference pace: nanoseconds a step of the machine takes on the reference
/// clock. It is the pace the parent's machine ran at in its quiet phases; only ratios
/// to it matter.
pub const REFERENCE_STEP_NS: f64 = 2.0;
/// Samples a period needs for the median of its paces to mean something.
pub const SAMPLES_PER_PERIOD: usize = 16;

/// The register machine: eight registers, a data memory and a fixed program of
/// [`CODE_LEN`] instructions drawn once from a fixed xorshift sequence.
struct Machine {
    code: [u16; CODE_LEN],
    memory: Vec<u64>,
}

impl Machine {
    fn new() -> Machine {
        let mut code = [0u16; CODE_LEN];
        let mut s = 0x2545_f491_4f6c_dd1d_u64;
        for c in &mut code {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            *c = (s >> 20) as u16;
        }
        Machine {
            code,
            memory: vec![0; MEMORY_WORDS],
        }
    }

    /// Interprets `steps` instructions. An instruction word holds an operation in
    /// its low three bits and three register numbers above them.
    #[inline(never)]
    fn run(&mut self, steps: u32) -> u64 {
        const WORD: usize = MEMORY_WORDS - 1;
        let mut regs = [1u64, 2, 3, 5, 7, 11, 13, 17];
        let mut pc = 0;
        for _ in 0..steps {
            let w = self.code[pc] as usize;
            let (a, b, c) = ((w >> 3) & 7, (w >> 6) & 7, (w >> 9) & 7);
            pc = (pc + 1) % CODE_LEN;
            match w & 7 {
                0 => regs[a] = regs[b].wrapping_add(regs[c]),
                1 => regs[a] = regs[b].wrapping_mul(regs[c] | 1),
                2 => regs[a] = self.memory[regs[b] as usize & WORD],
                3 => self.memory[regs[b] as usize & WORD] = regs[c],
                4 => regs[a] = regs[b] ^ (regs[c] >> 7),
                5 if regs[b] & 4 == 0 => pc = (pc + c) % CODE_LEN,
                5 => {}
                6 => regs[a] = regs[a].wrapping_add(w as u64),
                _ => regs[a] = regs[b].rotate_left(13) ^ regs[c],
            }
        }
        regs.iter().fold(0, |x, r| x ^ r)
    }
}

#[cfg(target_os = "linux")]
mod cpu {
    use std::fs::File;
    use std::os::unix::fs::FileExt;

    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }

    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }

    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

    /// Processor time of the calling thread so far, in seconds.
    pub fn thread_cpu_s() -> Option<f64> {
        let mut ts = Timespec { sec: 0, nsec: 0 };
        // SAFETY: `ts` is a valid, writable `timespec` (two 64-bit fields on every
        // 64-bit Linux target) and the clock id is a constant of the Linux ABI.
        let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        (rc == 0).then_some(ts.sec as f64 + ts.nsec as f64 * 1e-9)
    }

    thread_local! {
        /// The calling thread's scheduler statistics: nanoseconds on the processor,
        /// nanoseconds runnable but kept waiting for one, time slices.
        static SCHEDSTAT: Option<File> = File::open("/proc/thread-self/schedstat").ok();
    }

    /// Seconds the calling thread has so far been runnable without a processor to
    /// run on (another process had it).
    pub fn thread_kept_waiting_s() -> Option<f64> {
        SCHEDSTAT.with(|file| {
            let mut buf = [0u8; 96];
            let n = file.as_ref()?.read_at(&mut buf, 0).ok()?;
            let text = std::str::from_utf8(&buf[..n]).ok()?;
            let ns: u64 = text.split_ascii_whitespace().nth(1)?.parse().ok()?;
            Some(ns as f64 * 1e-9)
        })
    }
}

#[cfg(not(target_os = "linux"))]
mod cpu {
    pub fn thread_cpu_s() -> Option<f64> {
        None
    }

    pub fn thread_kept_waiting_s() -> Option<f64> {
        None
    }
}

/// What a stretch of code on the calling thread took, in seconds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Stretch {
    pub wall_s: f64,
    /// Of those, on the processor.
    pub cpu_s: f64,
    /// Of those, runnable while another process had the processor.
    pub kept_waiting_s: f64,
}

impl std::ops::AddAssign for Stretch {
    fn add_assign(&mut self, other: Stretch) {
        self.wall_s += other.wall_s;
        self.cpu_s += other.cpu_s;
        self.kept_waiting_s += other.kept_waiting_s;
    }
}

/// Times a stretch of code on the calling thread.
pub struct Stopwatch {
    wall: Instant,
    cpu_s: Option<f64>,
    kept_waiting_s: Option<f64>,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch {
            kept_waiting_s: cpu::thread_kept_waiting_s(),
            cpu_s: cpu::thread_cpu_s(),
            wall: Instant::now(),
        }
    }

    /// The stretch since [`start`](Self::start). Where the thread's processor time
    /// cannot be read, all of the wall time counts as processor time; where its
    /// scheduler statistics cannot, it was never kept waiting.
    pub fn stop(&self) -> Stretch {
        let wall_s = self.wall.elapsed().as_secs_f64();
        let cpu_s = match (self.cpu_s, cpu::thread_cpu_s()) {
            (Some(before), Some(after)) => (after - before).clamp(0.0, wall_s),
            _ => wall_s,
        };
        let kept_waiting_s = match (self.kept_waiting_s, cpu::thread_kept_waiting_s()) {
            (Some(before), Some(after)) => (after - before).clamp(0.0, wall_s - cpu_s),
            _ => 0.0,
        };
        Stretch {
            wall_s,
            cpu_s,
            kept_waiting_s,
        }
    }
}

/// The pace samples of one stretch of the run (a period of the op sequence, one
/// set-up).
pub struct Pace {
    machine: Machine,
    step_ns: Vec<f64>,
}

impl Pace {
    pub fn new() -> Pace {
        Pace {
            machine: Machine::new(),
            step_ns: Vec::new(),
        }
    }

    pub fn clear(&mut self) {
        self.step_ns.clear();
    }

    /// Times `samples` runs of the machine on the calling thread's processor clock.
    pub fn sample(&mut self, samples: usize) {
        for _ in 0..samples {
            let watch = Stopwatch::start();
            black_box(self.machine.run(black_box(SAMPLE_STEPS)));
            self.step_ns
                .push(watch.stop().cpu_s * 1e9 / f64::from(SAMPLE_STEPS));
        }
    }

    /// Nanoseconds a step took: the median of the samples (a sample is as exposed to
    /// short disturbances as an op is; the median of a period's samples is not).
    pub fn step_ns(&self) -> f64 {
        let mut sorted = self.step_ns.clone();
        crate::stats::median(&mut sorted)
    }

    /// What the times of `stretch` have to be multiplied by to read as they would
    /// on the reference clock.
    pub fn factor(&self, stretch: Stretch) -> f64 {
        paced(stretch, self.step_ns()) / stretch.wall_s
    }
}

/// `stretch` at the reference pace: the processor part scaled by how fast the
/// processor ran (`step_ns` against the reference), the part another process kept
/// the thread waiting left out, the rest (sleeping, blocked) as it is.
fn paced(stretch: Stretch, step_ns: f64) -> f64 {
    let Stretch {
        wall_s,
        cpu_s,
        kept_waiting_s,
    } = stretch;
    (wall_s - cpu_s - kept_waiting_s) + cpu_s * REFERENCE_STEP_NS / step_ns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn processor_time_is_scaled_and_sleeping_is_not() {
        let stretch = |wall_s, cpu_s, kept_waiting_s| Stretch {
            wall_s,
            cpu_s,
            kept_waiting_s,
        };
        // All on the processor, at the reference pace: unchanged.
        assert_eq!(paced(stretch(2.0, 2.0, 0.0), REFERENCE_STEP_NS), 2.0);
        // The processor ran 10 % slow: the time reads 10 % shorter.
        assert!((paced(stretch(2.2, 2.2, 0.0), REFERENCE_STEP_NS * 1.1) - 2.0).abs() < 1e-12);
        // Half of it asleep: only the processor half is scaled.
        assert!((paced(stretch(2.0, 1.0, 0.0), REFERENCE_STEP_NS * 2.0) - 1.5).abs() < 1e-12);
        // A quarter asleep, a quarter behind another process: the latter is left out.
        assert!((paced(stretch(2.0, 1.0, 0.5), REFERENCE_STEP_NS * 2.0) - 1.0).abs() < 1e-12);
        let mut pace = Pace::new();
        pace.step_ns = vec![REFERENCE_STEP_NS * 2.0, 9.0, REFERENCE_STEP_NS * 2.0];
        assert_eq!(pace.step_ns(), REFERENCE_STEP_NS * 2.0);
        assert!((pace.factor(stretch(2.0, 1.0, 0.0)) - 0.75).abs() < 1e-12);
        let mut sum = stretch(1.0, 0.5, 0.25);
        sum += stretch(2.0, 1.0, 0.5);
        assert_eq!(sum, stretch(3.0, 1.5, 0.75));
    }

    #[test]
    fn the_machine_is_deterministic_and_timed() {
        let (mut a, mut b) = (Machine::new(), Machine::new());
        assert_eq!(a.run(1000), b.run(1000));
        assert_ne!(a.run(1000), Machine::new().run(999));
        assert!(
            a.memory.iter().any(|&w| w != 0),
            "the program stores to its memory"
        );
        let mut pace = Pace::new();
        pace.sample(3);
        assert_eq!(pace.step_ns.len(), 3);
        assert!(pace.step_ns() > 0.0);
        pace.clear();
        assert!(pace.step_ns.is_empty());
        let watch = Stopwatch::start();
        black_box(a.run(100_000));
        let took = watch.stop();
        assert!(took.wall_s > 0.0 && took.cpu_s + took.kept_waiting_s <= took.wall_s);
    }
}
