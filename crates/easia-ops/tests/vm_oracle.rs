//! The sandbox VM against the interpreter it replaced.
//!
//! `Vm::run` lowers a program once, fuses the idioms of EPC's
//! memory-variable style and runs the result in one loop, accounting
//! for every instruction as if it ran alone. [`reference`] is the loop
//! it replaced: one instruction per dispatch, each checked against the
//! budget, counted and bounds-checked on its own. It is the old body of
//! `Vm::run` as a plain function, with one change: READINPUT's
//! `off + len` wraps, as the release build always did, instead of
//! overflowing in a debug build.
//!
//! Both must give the same `Result<RunOutput, VmError>` and call the
//! progress callback with the same `(done, budget)` sequence:
//!
//! * on random programs over every instruction, constants near 0 and
//!   near `i64::MIN`/`MAX`, jump targets up to two past the end and
//!   tiny limits, so every error fires and fused idioms meet them;
//! * on the assembler's examples at budgets 0–3, around the first
//!   progress ticks and around their exact instruction counts, with
//!   the checksum loop shifted through every phase against the ticks.

use easia_ops::asm::{assemble, EXAMPLE_CHECKSUM, EXAMPLE_COUNT, EXAMPLE_HEAD};
use easia_ops::vm::{Insn, Limits, Program, RunOutput, Vm, VmError};
use std::cell::RefCell;
use std::rc::Rc;

/// The interpreter `Vm::run` replaced.
fn reference(
    limits: Limits,
    progress: &mut dyn FnMut(u64, u64),
    program: &Program,
    input: &[u8],
    params: &[String],
) -> Result<RunOutput, VmError> {
    let mut stack: Vec<i64> = Vec::new();
    let mut mem: Vec<u8> = Vec::new();
    let mut out = RunOutput::default();
    let mut current_out: Option<String> = None;
    let mut total_out = 0usize;
    let mut pc = 0usize;
    let mut executed = 0u64;

    macro_rules! pop {
        () => {
            stack.pop().ok_or(VmError::StackViolation)?
        };
    }
    macro_rules! push {
        ($v:expr) => {{
            if stack.len() >= limits.max_stack {
                return Err(VmError::StackViolation);
            }
            stack.push($v);
        }};
    }

    let mem_range = |mem: &mut Vec<u8>,
                     addr: i64,
                     len: i64,
                     max: usize|
     -> Result<std::ops::Range<usize>, VmError> {
        if addr < 0 || len < 0 {
            return Err(VmError::MemoryViolation {
                addr: addr as u64,
                len: len as u64,
            });
        }
        let (addr, len) = (addr as u64, len as u64);
        let end = addr
            .checked_add(len)
            .ok_or(VmError::MemoryViolation { addr, len })?;
        if end > max as u64 {
            return Err(VmError::MemoryViolation { addr, len });
        }
        if mem.len() < end as usize {
            mem.resize(end as usize, 0);
        }
        Ok(addr as usize..end as usize)
    };

    loop {
        if executed >= limits.max_instructions {
            return Err(VmError::BudgetExhausted);
        }
        executed += 1;
        if executed.is_multiple_of(65_536) {
            progress(executed, limits.max_instructions);
        }
        let insn = *program.code.get(pc).ok_or(VmError::NoHalt)?;
        pc += 1;
        match insn {
            Insn::Push(v) => push!(v),
            Insn::Pop => {
                pop!();
            }
            Insn::Dup => {
                let v = *stack.last().ok_or(VmError::StackViolation)?;
                push!(v);
            }
            Insn::Swap => {
                let n = stack.len();
                if n < 2 {
                    return Err(VmError::StackViolation);
                }
                stack.swap(n - 1, n - 2);
            }
            Insn::Over(k) => {
                let n = stack.len();
                let idx = n
                    .checked_sub(1 + k as usize)
                    .ok_or(VmError::StackViolation)?;
                let v = stack[idx];
                push!(v);
            }
            Insn::Add => {
                let b = pop!();
                let a = pop!();
                push!(a.wrapping_add(b));
            }
            Insn::Sub => {
                let b = pop!();
                let a = pop!();
                push!(a.wrapping_sub(b));
            }
            Insn::Mul => {
                let b = pop!();
                let a = pop!();
                push!(a.wrapping_mul(b));
            }
            Insn::Div => {
                let b = pop!();
                let a = pop!();
                if b == 0 {
                    return Err(VmError::DivideByZero);
                }
                push!(a.wrapping_div(b));
            }
            Insn::Mod => {
                let b = pop!();
                let a = pop!();
                if b == 0 {
                    return Err(VmError::DivideByZero);
                }
                push!(a.wrapping_rem(b));
            }
            Insn::Neg => {
                let a = pop!();
                push!(a.wrapping_neg());
            }
            Insn::Eq => {
                let b = pop!();
                let a = pop!();
                push!(i64::from(a == b));
            }
            Insn::Lt => {
                let b = pop!();
                let a = pop!();
                push!(i64::from(a < b));
            }
            Insn::Gt => {
                let b = pop!();
                let a = pop!();
                push!(i64::from(a > b));
            }
            Insn::And => {
                let b = pop!();
                let a = pop!();
                push!(a & b);
            }
            Insn::Or => {
                let b = pop!();
                let a = pop!();
                push!(a | b);
            }
            Insn::Xor => {
                let b = pop!();
                let a = pop!();
                push!(a ^ b);
            }
            Insn::Jmp(t) => {
                if t as usize > program.code.len() {
                    return Err(VmError::BadJump(t));
                }
                pc = t as usize;
            }
            Insn::Jz(t) => {
                let v = pop!();
                if v == 0 {
                    if t as usize > program.code.len() {
                        return Err(VmError::BadJump(t));
                    }
                    pc = t as usize;
                }
            }
            Insn::Jnz(t) => {
                let v = pop!();
                if v != 0 {
                    if t as usize > program.code.len() {
                        return Err(VmError::BadJump(t));
                    }
                    pc = t as usize;
                }
            }
            Insn::Load8 => {
                let addr = pop!();
                let r = mem_range(&mut mem, addr, 1, limits.max_memory)?;
                push!(i64::from(mem[r.start]));
            }
            Insn::Store8 => {
                let value = pop!();
                let addr = pop!();
                let r = mem_range(&mut mem, addr, 1, limits.max_memory)?;
                mem[r.start] = value as u8;
            }
            Insn::Load64 => {
                let addr = pop!();
                let r = mem_range(&mut mem, addr, 8, limits.max_memory)?;
                let v = i64::from_le_bytes(mem[r].try_into().expect("8 bytes"));
                push!(v);
            }
            Insn::Store64 => {
                let value = pop!();
                let addr = pop!();
                let r = mem_range(&mut mem, addr, 8, limits.max_memory)?;
                mem[r].copy_from_slice(&value.to_le_bytes());
            }
            Insn::InputSize => push!(input.len() as i64),
            Insn::ReadInput => {
                let len = pop!();
                let off = pop!();
                let dst = pop!();
                if off < 0 || len < 0 || off.wrapping_add(len) as usize > input.len() {
                    return Err(VmError::InputRange {
                        off: off.max(0) as u64,
                        len: len.max(0) as u64,
                    });
                }
                let r = mem_range(&mut mem, dst, len, limits.max_memory)?;
                mem[r].copy_from_slice(&input[off as usize..(off + len) as usize]);
            }
            Insn::OutOpen => {
                let len = pop!();
                let addr = pop!();
                let r = mem_range(&mut mem, addr, len, limits.max_memory)?;
                let name = String::from_utf8_lossy(&mem[r]).into_owned();
                validate_filename(&name)?;
                out.files.entry(name.clone()).or_default();
                current_out = Some(name);
            }
            Insn::OutWrite => {
                let len = pop!();
                let addr = pop!();
                let r = mem_range(&mut mem, addr, len, limits.max_memory)?;
                let name = current_out.clone().ok_or(VmError::NoOutputOpen)?;
                total_out += r.len();
                if total_out > limits.max_output {
                    return Err(VmError::OutputQuota);
                }
                let bytes = mem[r].to_vec();
                out.files
                    .get_mut(&name)
                    .expect("opened above")
                    .extend(bytes);
            }
            Insn::PrintNum => {
                let v = pop!();
                out.stdout.push_str(&v.to_string());
                out.stdout.push('\n');
                if out.stdout.len() > limits.max_output {
                    return Err(VmError::OutputQuota);
                }
            }
            Insn::PrintMem => {
                let len = pop!();
                let addr = pop!();
                let r = mem_range(&mut mem, addr, len, limits.max_memory)?;
                out.stdout.push_str(&String::from_utf8_lossy(&mem[r]));
                if out.stdout.len() > limits.max_output {
                    return Err(VmError::OutputQuota);
                }
            }
            Insn::ArgCount => push!(params.len() as i64),
            Insn::ArgLen => {
                let i = pop!();
                let p = usize::try_from(i)
                    .ok()
                    .and_then(|i| params.get(i))
                    .ok_or(VmError::BadArg(i))?;
                push!(p.len() as i64);
            }
            Insn::ArgRead => {
                let dst = pop!();
                let i = pop!();
                let p = usize::try_from(i)
                    .ok()
                    .and_then(|i| params.get(i))
                    .ok_or(VmError::BadArg(i))?
                    .clone();
                let r = mem_range(&mut mem, dst, p.len() as i64, limits.max_memory)?;
                mem[r].copy_from_slice(p.as_bytes());
            }
            Insn::Halt => {
                out.instructions = executed;
                return Ok(out);
            }
        }
    }
}

/// The reference's copy of the VM's filename rule.
fn validate_filename(name: &str) -> Result<(), VmError> {
    let bad = name.is_empty()
        || name.len() > 128
        || name.starts_with('/')
        || name.contains("..")
        || name.contains('\\')
        || name
            .chars()
            .any(|c| !(c.is_ascii_alphanumeric() || "._-/".contains(c)));
    if bad {
        Err(VmError::BadFilename(name.to_string()))
    } else {
        Ok(())
    }
}

/// A run's answer and the progress calls it made.
type Outcome = (Result<RunOutput, VmError>, Vec<(u64, u64)>);

fn by_reference(limits: Limits, program: &Program, input: &[u8], params: &[String]) -> Outcome {
    let mut calls = Vec::new();
    let result = reference(
        limits,
        &mut |done, budget| calls.push((done, budget)),
        program,
        input,
        params,
    );
    (result, calls)
}

fn by_vm(limits: Limits, program: &Program, input: &[u8], params: &[String]) -> Outcome {
    let calls = Rc::new(RefCell::new(Vec::new()));
    let sink = calls.clone();
    let result = Vm::new(limits)
        .with_progress(move |done, budget| sink.borrow_mut().push((done, budget)))
        .run(program, input, params);
    let calls = calls.borrow().clone();
    (result, calls)
}

/// Run both; panic with everything needed to replay a disagreement.
fn agree(
    limits: Limits,
    program: &Program,
    input: &[u8],
    params: &[String],
    case: &str,
) -> Outcome {
    let want = by_reference(limits, program, input, params);
    let got = by_vm(limits, program, input, params);
    assert!(
        got == want,
        "{case}: the VM disagrees with the reference\n\
         limits {limits:?}\ninput {input:?}\nparams {params:?}\ncode {:?}\n\
         reference {want:?}\nvm        {got:?}",
        program.code
    );
    want
}

/// xorshift64*: deterministic, so a failure names its case.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }
}

/// Small values, memory addresses of the tiny memories below, a
/// filename byte, and the edges of the word.
const CONSTANTS: [i64; 18] = [
    0,
    1,
    2,
    3,
    -1,
    -2,
    7,
    8,
    16,
    40,
    47,
    48,
    111,
    i64::MIN,
    i64::MIN + 1,
    i64::MAX - 7,
    i64::MAX - 1,
    i64::MAX,
];

fn constant(rng: &mut Rng) -> i64 {
    rng.pick(&CONSTANTS)
}

/// Any instruction; jump targets in `0..=len + 2`.
fn any_insn(rng: &mut Rng, len: usize) -> Insn {
    let target = rng.below(len as u64 + 3) as u32;
    match rng.below(42) {
        0..=7 => Insn::Push(constant(rng)),
        8 => Insn::Pop,
        9 => Insn::Dup,
        10 => Insn::Swap,
        11 => Insn::Over(rng.below(4) as u32),
        12 => Insn::Add,
        13 => Insn::Sub,
        14 => Insn::Mul,
        15 => Insn::Div,
        16 => Insn::Mod,
        17 => Insn::Neg,
        18 => Insn::Eq,
        19 => Insn::Lt,
        20 => Insn::Gt,
        21 => Insn::And,
        22 => Insn::Or,
        23 => Insn::Xor,
        24 => Insn::Jmp(target),
        25 => Insn::Jz(target),
        26 => Insn::Jnz(target),
        27 => Insn::Load8,
        28 => Insn::Store8,
        29 => Insn::Load64,
        30 => Insn::Store64,
        31 => Insn::InputSize,
        32 => Insn::ReadInput,
        33 => Insn::OutOpen,
        34 => Insn::OutWrite,
        35 => Insn::PrintNum,
        36 => Insn::PrintMem,
        37 => Insn::ArgCount,
        38 => Insn::ArgLen,
        39 => Insn::ArgRead,
        _ => Insn::Halt,
    }
}

/// One of the idioms the VM fuses, so that they meet every limit.
fn idiom(rng: &mut Rng, len: usize, code: &mut Vec<Insn>) {
    let target = rng.below(len as u64 + 3) as u32;
    let cmp = rng.pick(&[Insn::Eq, Insn::Lt, Insn::Gt]);
    let branch = rng.pick(&[Insn::Jz(target), Insn::Jnz(target)]);
    let k = Insn::Push(constant(rng));
    let operand = rng.pick(&[k, k, Insn::InputSize, Insn::ArgCount]);
    match rng.below(5) {
        0 => code.extend([operand, cmp, branch]),
        1 => code.extend([cmp, branch]),
        2 => code.extend([Insn::Push(constant(rng)), operand, Insn::Load64]),
        3 => code.extend([
            operand,
            rng.pick(&[Insn::Load8, Insn::Load64, Insn::ReadInput]),
        ]),
        _ => code.extend([operand, any_insn(rng, len)]),
    }
}

fn random_program(rng: &mut Rng) -> Program {
    let len = 1 + rng.below(20) as usize;
    let mut code = Vec::with_capacity(len + 8);
    if rng.below(3) == 0 {
        // Open the output file "o", so OUTWRITE can get past its check.
        code.extend([
            Insn::Push(0),
            Insn::Push(111),
            Insn::Store8,
            Insn::Push(0),
            Insn::Push(1),
            Insn::OutOpen,
        ]);
    }
    while code.len() < len {
        if rng.below(4) == 0 {
            idiom(rng, len, &mut code);
        } else {
            let insn = any_insn(rng, len);
            code.push(insn);
        }
    }
    if rng.below(2) == 0 {
        code.push(Insn::Halt);
    }
    Program { code }
}

#[test]
fn random_programs_run_as_on_the_reference() {
    let programs = if cfg!(debug_assertions) {
        40_000
    } else {
        400_000
    };
    let params_pool = ["", "x", "ab", "a.b", "../x", "k=1"];
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    let mut halted = 0;
    for case in 0..programs {
        let program = random_program(&mut rng);
        let limits = Limits {
            max_instructions: rng.below(301),
            max_stack: rng.below(7) as usize,
            max_memory: rng.below(49) as usize,
            max_output: rng.below(41) as usize,
        };
        let input: Vec<u8> = (0..rng.below(13)).map(|_| rng.next() as u8).collect();
        let params: Vec<String> = (0..rng.below(3))
            .map(|_| rng.pick(&params_pool).to_string())
            .collect();
        let (result, _) = agree(limits, &program, &input, &params, &format!("case {case}"));
        halted += usize::from(result.is_ok());
    }
    // The generator must reach HALT often enough to compare outputs.
    assert!(halted * 20 > programs, "{halted} of {programs} halted");
}

/// Budgets that meet the start, each of the first three progress ticks
/// and the end of a run of `count` instructions.
fn boundary_budgets(count: u64) -> Vec<u64> {
    let mut budgets = vec![0, 1, 2, 3, count - 1, count, count + 1, u64::MAX];
    for k in 1..=3u64 {
        budgets.extend([k * 65_536 - 1, k * 65_536, k * 65_536 + 1]);
    }
    budgets
}

fn check_example(src: &str, input: &[u8], params: &[String], case: &str) {
    let program = assemble(src).unwrap();
    let count = by_reference(Limits::default(), &program, input, params)
        .0
        .unwrap_or_else(|e| panic!("{case}: {e}"))
        .instructions;
    for budget in boundary_budgets(count) {
        let limits = Limits {
            max_instructions: budget,
            ..Limits::default()
        };
        let case = format!("{case} at budget {budget}");
        let (result, _) = agree(limits, &program, input, params, &case);
        assert_eq!(result.is_ok(), budget >= count, "{case}: {result:?}");
    }
}

#[test]
fn the_examples_run_as_on_the_reference_at_every_boundary_budget() {
    let params = vec!["dataset.edf".to_string(), "type=u".to_string()];
    let bytes: Vec<u8> = (0..200u8).collect();
    check_example(EXAMPLE_COUNT, &bytes, &params, "count");
    check_example(EXAMPLE_HEAD, &bytes, &params, "head");
    // 6 KiB: 147,465 instructions, two progress ticks. The loop is 24
    // instructions; a prefix of 0–23 one-instruction jumps moves every
    // instruction of it onto each tick.
    let input: Vec<u8> = (0..6 * 1024).map(|i| (i * 7 % 251) as u8).collect();
    for shift in 0..24 {
        let prefix: String = (0..shift)
            .map(|i| format!("    JMP s{i}\ns{i}:\n"))
            .collect();
        let src = format!("{prefix}{EXAMPLE_CHECKSUM}");
        check_example(&src, &input, &params, &format!("checksum shifted {shift}"));
    }
}
