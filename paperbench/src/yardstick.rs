//! A fixed reference workload that measures how fast the host runs
//! interpreter code at the moment.
//!
//! On a shared host the speed of interpreter code drifts by 30% or more
//! over minutes, while a plain arithmetic loop barely moves: the
//! interpreter's dispatch depends on predictors and caches that other
//! tenants also use. The yardstick is a small interpreter of its own,
//! run right after each repetition. Host time divided by the yardstick's
//! time gives the run's length in reference seconds, which cancels most
//! of the drift and none of a change in the simulator. The yardstick is
//! part of the benchmark, so it stays the same from one commit to the
//! next.

use std::hint::black_box;
use std::time::Instant;

/// Yardstick operations that make one reference second: roughly what
/// the yardstick runs per host second on the recorder in
/// `recorder.json`.
pub const OPS_PER_REF_SECOND: f64 = 450e6;

#[derive(Clone, Copy)]
enum Op {
    /// `r[d] = mem[r[base] + off]`
    Load(u8, u8, u32),
    /// `pc = target if r[a] >= r[b]`
    BranchGe(u8, u8, u32),
    /// `pc = target if r[a] == 0`
    BranchZero(u8, u32),
    /// `r[d] = r[a] + imm`
    AddImm(u8, u8, i64),
    Count,
    /// `pc = target`; the target `HALT` ends the pass.
    Jump(u32),
}

const HALT: u32 = u32::MAX;

/// A key-range count over `mem`, the shape of the kv scan kernel.
const PROGRAM: [Op; 8] = [
    Op::BranchZero(1, 7),
    Op::Load(2, 0, 0),
    Op::BranchGe(2, 3, 4),
    Op::Count,
    Op::AddImm(0, 0, 4),
    Op::AddImm(1, 1, -1),
    Op::Jump(0),
    Op::Jump(HALT),
];
const WORDS: usize = 1 << 16;
const PASSES: u64 = 100;

/// Runs the yardstick once (about 25 ms on the recorder) and returns
/// its speed in operations per host second.
pub fn ops_per_second() -> f64 {
    let mut mem = vec![0u64; WORDS];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for m in &mut mem {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *m = x % 1000;
    }
    let program = black_box(PROGRAM.to_vec());
    let start = Instant::now();
    let mut ops = 0u64;
    let mut count = 0u64;
    for _ in 0..PASSES {
        let mut r = [0i64; 8];
        r[1] = (WORDS / 4) as i64;
        r[3] = 10;
        let mut pc = 0u32;
        loop {
            ops += 1;
            match program[pc as usize] {
                Op::Load(d, base, off) => {
                    r[d as usize] = mem[(r[base as usize] as usize + off as usize) % WORDS] as i64;
                    pc += 1;
                }
                Op::BranchGe(a, b, t) => {
                    pc = if r[a as usize] >= r[b as usize] {
                        t
                    } else {
                        pc + 1
                    }
                }
                Op::BranchZero(a, t) => pc = if r[a as usize] == 0 { t } else { pc + 1 },
                Op::AddImm(d, a, imm) => {
                    r[d as usize] = r[a as usize] + imm;
                    pc += 1;
                }
                Op::Count => {
                    count += 1;
                    pc += 1;
                }
                Op::Jump(HALT) => break,
                Op::Jump(t) => pc = t,
            }
        }
    }
    let secs = start.elapsed().as_secs_f64();
    black_box(count);
    ops as f64 / secs
}
