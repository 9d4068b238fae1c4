//! The EPC sandbox virtual machine.
//!
//! A deliberately small stack machine. Security properties mirror the
//! paper's uploaded-code sandbox:
//!
//! * **bounded CPU** — every executed instruction decrements a budget;
//!   exhaustion terminates the job (no infinite loops),
//! * **bounded memory** — one linear byte array with a hard cap,
//! * **confined I/O** — the only reachable files are the job's input
//!   dataset (read-only) and *relative* output names created inside the
//!   job workspace; there is no way to name an absolute path,
//! * **no ambient authority** — parameters arrive as explicit strings.
//!
//! Word size is i64. Syscalls are dedicated opcodes rather than a
//! numbering scheme, keeping programs readable in assembly.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Execution limits for one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Maximum instructions executed.
    pub max_instructions: u64,
    /// Maximum memory bytes addressable.
    pub max_memory: usize,
    /// Maximum total output bytes.
    pub max_output: usize,
    /// Maximum value-stack depth.
    pub max_stack: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_instructions: 50_000_000,
            max_memory: 16 << 20,
            max_output: 64 << 20,
            max_stack: 64 * 1024,
        }
    }
}

/// Bytecode instructions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Insn {
    /// Push an immediate.
    Push(i64),
    /// Discard the top of stack.
    Pop,
    /// Duplicate the top of stack.
    Dup,
    /// Swap the top two values.
    Swap,
    /// Copy the value `n` below the top onto the top (`Over(0)` == Dup).
    Over(u32),
    Add,
    Sub,
    Mul,
    /// Signed division; traps on divide-by-zero.
    Div,
    /// Signed remainder; traps on divide-by-zero.
    Mod,
    Neg,
    /// Pop b, a; push 1 if a==b else 0.
    Eq,
    /// Pop b, a; push 1 if a<b else 0.
    Lt,
    /// Pop b, a; push 1 if a>b else 0.
    Gt,
    /// Bitwise and/or/xor.
    And,
    Or,
    Xor,
    /// Unconditional jump to instruction index.
    Jmp(u32),
    /// Pop; jump if zero.
    Jz(u32),
    /// Pop; jump if non-zero.
    Jnz(u32),
    /// Pop addr; push mem[addr] (one byte, zero-extended).
    Load8,
    /// Pop addr, value; mem[addr] = value & 0xff.
    Store8,
    /// Pop addr; push little-endian i64 at mem[addr..addr+8].
    Load64,
    /// Pop addr, value; store little-endian i64.
    Store64,
    /// Push the input dataset size in bytes.
    InputSize,
    /// Pop len, src_off, dst_addr: copy input[src_off..+len] to memory.
    ReadInput,
    /// Pop name_len, name_addr: select (creating) the named output file.
    OutOpen,
    /// Pop len, addr: append memory bytes to the current output file.
    OutWrite,
    /// Pop a value, append its decimal form + '\n' to stdout.
    PrintNum,
    /// Pop len, addr: append memory bytes to stdout.
    PrintMem,
    /// Push the number of parameters.
    ArgCount,
    /// Pop index; push the length of parameter `index`.
    ArgLen,
    /// Pop index, dst_addr: copy parameter `index` into memory.
    ArgRead,
    /// Stop successfully.
    Halt,
}

/// A compiled program.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// Instruction sequence.
    pub code: Vec<Insn>,
}

/// VM failure modes — each one is a sandbox guarantee firing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmError {
    /// Instruction budget exhausted.
    BudgetExhausted,
    /// Memory address/extent beyond the cap.
    MemoryViolation { addr: u64, len: u64 },
    /// Stack underflow or overflow.
    StackViolation,
    /// Jump target outside the program.
    BadJump(u32),
    /// Division or remainder by zero.
    DivideByZero,
    /// Input range out of bounds.
    InputRange { off: u64, len: u64 },
    /// Output quota exceeded.
    OutputQuota,
    /// OutWrite with no open output file.
    NoOutputOpen,
    /// Bad parameter index.
    BadArg(i64),
    /// Output filename is not a clean relative name.
    BadFilename(String),
    /// Program ran off the end without HALT.
    NoHalt,
}

impl std::fmt::Display for VmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VmError::BudgetExhausted => write!(f, "instruction budget exhausted"),
            VmError::MemoryViolation { addr, len } => {
                write!(f, "memory violation at {addr}+{len}")
            }
            VmError::StackViolation => write!(f, "stack violation"),
            VmError::BadJump(t) => write!(f, "jump to invalid target {t}"),
            VmError::DivideByZero => write!(f, "division by zero"),
            VmError::InputRange { off, len } => write!(f, "input read out of range {off}+{len}"),
            VmError::OutputQuota => write!(f, "output quota exceeded"),
            VmError::NoOutputOpen => write!(f, "no output file open"),
            VmError::BadArg(i) => write!(f, "bad parameter index {i}"),
            VmError::BadFilename(n) => write!(f, "illegal output filename {n:?}"),
            VmError::NoHalt => write!(f, "program ended without HALT"),
        }
    }
}

impl std::error::Error for VmError {}

/// Result of a successful run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RunOutput {
    /// Files created, by relative name.
    pub files: BTreeMap<String, Vec<u8>>,
    /// Captured stdout.
    pub stdout: String,
    /// Instructions executed.
    pub instructions: u64,
}

/// The virtual machine.
pub struct Vm {
    limits: Limits,
    /// Progress callback: `(executed, budget)` every ~64k instructions.
    progress: Option<Box<dyn FnMut(u64, u64)>>,
}

/// Progress is reported when the executed count reaches a multiple of
/// this.
const TICK: u64 = 65_536;

/// The most instructions one lowered [`Step`] stands for.
const WIDEST: u64 = 3;

impl Vm {
    /// VM with the given limits.
    pub fn new(limits: Limits) -> Self {
        Vm {
            limits,
            progress: None,
        }
    }

    /// Install a progress callback (the paper's "runtime monitoring of
    /// operation progress" extension hooks in here).
    pub fn with_progress(mut self, f: impl FnMut(u64, u64) + 'static) -> Self {
        self.progress = Some(Box::new(f));
        self
    }

    /// Run `program` over `input` with `params`.
    ///
    /// The program is lowered once (`Run::lower`), then one loop runs
    /// it. Every instruction is accounted exactly as if it ran alone: a
    /// lowered step runs only while it cannot reach the budget or a
    /// progress tick (the *edge*); within `WIDEST` of the edge the loop
    /// runs single instructions, each checked against the budget and
    /// counted on its own.
    pub fn run(
        &mut self,
        program: &Program,
        input: &[u8],
        params: &[String],
    ) -> Result<RunOutput, VmError> {
        let Limits {
            max_instructions: budget,
            max_memory,
            max_output,
            max_stack,
        } = self.limits;
        let code = &program.code;
        let run = Run {
            input_size: input.len() as i64,
            arg_count: params.len() as i64,
        };
        let steps: Vec<Step> = (0..=code.len()).map(|at| run.lower(code, at)).collect();
        let mut stack: Vec<i64> = Vec::new();
        let mut mem: Vec<u8> = Vec::new();
        let mut out = RunOutput::default();
        let mut current_out: Option<String> = None;
        let mut total_out = 0usize;
        let mut pc = 0usize;
        let mut executed = 0u64;
        let mut edge = edge_after(executed, budget);

        macro_rules! pop {
            () => {
                stack.pop().ok_or(VmError::StackViolation)?
            };
        }
        // A fused step that stands in for a `PUSH` first checks the room
        // that `PUSH` needed.
        macro_rules! room {
            ($n:expr) => {
                if stack.len() + $n > max_stack {
                    return Err(VmError::StackViolation);
                }
            };
        }
        macro_rules! push {
            ($v:expr) => {{
                room!(1);
                stack.push($v);
            }};
        }
        macro_rules! top {
            () => {
                stack.last_mut().ok_or(VmError::StackViolation)?
            };
        }

        loop {
            let step = if executed + WIDEST <= edge {
                let step = steps[pc];
                executed += u64::from(step.width);
                step
            } else {
                // Near the edge: the plain instruction at `pc`, checked
                // against the budget, counted and reported on its own.
                if executed >= budget {
                    return Err(VmError::BudgetExhausted);
                }
                executed += 1;
                if executed.is_multiple_of(TICK) {
                    if let Some(p) = &mut self.progress {
                        p(executed, budget);
                    }
                }
                edge = edge_after(executed, budget);
                Step {
                    op: run.plain(code, pc),
                    width: 1,
                }
            };
            pc += step.width as usize;
            match step.op {
                Op::Push(v) => push!(v),
                Op::Pop => {
                    pop!();
                }
                Op::Dup => {
                    let v = *stack.last().ok_or(VmError::StackViolation)?;
                    push!(v);
                }
                Op::Swap => {
                    let n = stack.len();
                    if n < 2 {
                        return Err(VmError::StackViolation);
                    }
                    stack.swap(n - 1, n - 2);
                }
                Op::Over(k) => {
                    let n = stack.len();
                    let idx = n
                        .checked_sub(1 + k as usize)
                        .ok_or(VmError::StackViolation)?;
                    let v = stack[idx];
                    push!(v);
                }
                Op::Bin(f) => {
                    let b = pop!();
                    let a = top!();
                    *a = f.apply(*a, b)?;
                }
                Op::BinK(f, k) => {
                    room!(1);
                    let a = top!();
                    *a = f.apply(*a, k)?;
                }
                Op::Neg => {
                    let a = top!();
                    *a = a.wrapping_neg();
                }
                Op::Jmp(t) => pc = t as usize,
                Op::Jz(t) => {
                    if pop!() == 0 {
                        pc = t as usize;
                    }
                }
                Op::Jnz(t) => {
                    if pop!() != 0 {
                        pc = t as usize;
                    }
                }
                Op::JmpBad(t) => return Err(VmError::BadJump(t)),
                Op::JzBad(t) => {
                    if pop!() == 0 {
                        return Err(VmError::BadJump(t));
                    }
                }
                Op::JnzBad(t) => {
                    if pop!() != 0 {
                        return Err(VmError::BadJump(t));
                    }
                }
                Op::CmpKJump(f, on, k, t) => {
                    room!(1);
                    let a = pop!();
                    if (f.apply(a, k)? != 0) == on {
                        pc = t as usize;
                    }
                }
                Op::Load8 => {
                    let a = top!();
                    let r = mem_range(&mut mem, *a, 1, max_memory)?;
                    *a = i64::from(mem[r.start]);
                }
                Op::Load8K(addr) => {
                    room!(1);
                    let r = mem_range(&mut mem, addr, 1, max_memory)?;
                    stack.push(i64::from(mem[r.start]));
                }
                Op::Load64 => {
                    let a = top!();
                    let r = mem_range(&mut mem, *a, 8, max_memory)?;
                    *a = word(&mem[r]);
                }
                Op::Load64K(addr) => {
                    room!(1);
                    let r = mem_range(&mut mem, addr, 8, max_memory)?;
                    stack.push(word(&mem[r]));
                }
                Op::PushLoad64(v, addr) => {
                    room!(2);
                    let r = mem_range(&mut mem, i64::from(addr), 8, max_memory)?;
                    stack.push(v);
                    stack.push(word(&mem[r]));
                }
                Op::Store8 => {
                    let value = pop!();
                    let addr = pop!();
                    let r = mem_range(&mut mem, addr, 1, max_memory)?;
                    mem[r.start] = value as u8;
                }
                Op::Store64 => {
                    let value = pop!();
                    let addr = pop!();
                    let r = mem_range(&mut mem, addr, 8, max_memory)?;
                    mem[r].copy_from_slice(&value.to_le_bytes());
                }
                Op::ReadInput => {
                    let len = pop!();
                    let off = pop!();
                    let dst = pop!();
                    read_input(&mut mem, input, dst, off, len, max_memory)?;
                }
                Op::ReadInputK(len) => {
                    room!(1);
                    let off = pop!();
                    let dst = pop!();
                    read_input(&mut mem, input, dst, off, len, max_memory)?;
                }
                Op::OutOpen => {
                    let len = pop!();
                    let addr = pop!();
                    let r = mem_range(&mut mem, addr, len, max_memory)?;
                    let name = String::from_utf8_lossy(&mem[r]).into_owned();
                    validate_filename(&name)?;
                    out.files.entry(name.clone()).or_default();
                    current_out = Some(name);
                }
                Op::OutWrite => {
                    let len = pop!();
                    let addr = pop!();
                    let r = mem_range(&mut mem, addr, len, max_memory)?;
                    let name = current_out.as_deref().ok_or(VmError::NoOutputOpen)?;
                    total_out += r.len();
                    if total_out > max_output {
                        return Err(VmError::OutputQuota);
                    }
                    out.files
                        .get_mut(name)
                        .expect("opened above")
                        .extend_from_slice(&mem[r]);
                }
                Op::PrintNum => {
                    let v = pop!();
                    // Writing to a `String` cannot fail.
                    let _ = writeln!(out.stdout, "{v}");
                    if out.stdout.len() > max_output {
                        return Err(VmError::OutputQuota);
                    }
                }
                Op::PrintMem => {
                    let len = pop!();
                    let addr = pop!();
                    let r = mem_range(&mut mem, addr, len, max_memory)?;
                    out.stdout.push_str(&String::from_utf8_lossy(&mem[r]));
                    if out.stdout.len() > max_output {
                        return Err(VmError::OutputQuota);
                    }
                }
                Op::ArgLen => {
                    let i = pop!();
                    let p = param(params, i)?;
                    push!(p.len() as i64);
                }
                Op::ArgRead => {
                    let dst = pop!();
                    let i = pop!();
                    let p = param(params, i)?;
                    let r = mem_range(&mut mem, dst, p.len() as i64, max_memory)?;
                    mem[r].copy_from_slice(p.as_bytes());
                }
                Op::Halt => {
                    out.instructions = executed;
                    return Ok(out);
                }
                Op::End => return Err(VmError::NoHalt),
            }
        }
    }
}

/// The last instruction count a lowered step may reach from `executed`:
/// the budget, or the count just before the next progress tick.
fn edge_after(executed: u64, budget: u64) -> u64 {
    budget.min(executed | (TICK - 1))
}

/// One entry of a lowered program: an operation and the number of
/// instructions it stands for, all of which it counts.
#[derive(Debug, Clone, Copy)]
struct Step {
    op: Op,
    width: u32,
}

/// A lowered operation. Each fused one takes the same operands from
/// the stack and raises the same error on the same input as the
/// instructions it replaces, in their order.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// `PUSH k`, or `INPUTSIZE`/`ARGCOUNT`, whose values a run fixes.
    Push(i64),
    Pop,
    Dup,
    Swap,
    Over(u32),
    /// Pop b, a; push a ∘ b.
    Bin(Bin),
    /// `PUSH k` then a binary instruction: replace a with a ∘ k.
    BinK(Bin, i64),
    Neg,
    /// A jump to an instruction, or to the end (which raises `NoHalt`).
    Jmp(u32),
    Jz(u32),
    Jnz(u32),
    /// A jump past the end: raises `BadJump` when taken.
    JmpBad(u32),
    JzBad(u32),
    JnzBad(u32),
    /// `PUSH k`, `EQ|LT|GT`, then `JNZ t` (`true`) or `JZ t` (`false`).
    CmpKJump(Bin, bool, i64, u32),
    Load8,
    /// `PUSH addr; LOAD8`.
    Load8K(i64),
    Load64,
    /// `PUSH addr; LOAD64`.
    Load64K(i64),
    /// `PUSH v; PUSH addr; LOAD64`, for an `addr` that fits a `u32`
    /// (which keeps every step 24 bytes; larger ones never fit memory).
    PushLoad64(i64, u32),
    Store8,
    Store64,
    ReadInput,
    /// `PUSH len; READINPUT`.
    ReadInputK(i64),
    OutOpen,
    OutWrite,
    PrintNum,
    PrintMem,
    ArgLen,
    ArgRead,
    Halt,
    /// One past the last instruction: raises `NoHalt`.
    End,
}

/// The binary instructions.
#[derive(Debug, Clone, Copy)]
enum Bin {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    Lt,
    Gt,
    And,
    Or,
    Xor,
}

impl Bin {
    fn of(insn: Insn) -> Option<Bin> {
        Some(match insn {
            Insn::Add => Bin::Add,
            Insn::Sub => Bin::Sub,
            Insn::Mul => Bin::Mul,
            Insn::Div => Bin::Div,
            Insn::Mod => Bin::Mod,
            Insn::Eq => Bin::Eq,
            Insn::Lt => Bin::Lt,
            Insn::Gt => Bin::Gt,
            Insn::And => Bin::And,
            Insn::Or => Bin::Or,
            Insn::Xor => Bin::Xor,
            _ => return None,
        })
    }

    fn is_comparison(self) -> bool {
        matches!(self, Bin::Eq | Bin::Lt | Bin::Gt)
    }

    #[inline(always)]
    fn apply(self, a: i64, b: i64) -> Result<i64, VmError> {
        Ok(match self {
            Bin::Add => a.wrapping_add(b),
            Bin::Sub => a.wrapping_sub(b),
            Bin::Mul => a.wrapping_mul(b),
            Bin::Div | Bin::Mod if b == 0 => return Err(VmError::DivideByZero),
            Bin::Div => a.wrapping_div(b),
            Bin::Mod => a.wrapping_rem(b),
            Bin::Eq => i64::from(a == b),
            Bin::Lt => i64::from(a < b),
            Bin::Gt => i64::from(a > b),
            Bin::And => a & b,
            Bin::Or => a | b,
            Bin::Xor => a ^ b,
        })
    }
}

/// What a run fixes before its first instruction.
#[derive(Clone, Copy)]
struct Run {
    input_size: i64,
    arg_count: i64,
}

impl Run {
    /// The instruction at `at` as a plain operation; [`Op::End`] past
    /// the last one.
    fn plain(self, code: &[Insn], at: usize) -> Op {
        let Some(&insn) = code.get(at) else {
            return Op::End;
        };
        let fits = |t: u32| t as usize <= code.len();
        match insn {
            Insn::Push(v) => Op::Push(v),
            Insn::InputSize => Op::Push(self.input_size),
            Insn::ArgCount => Op::Push(self.arg_count),
            Insn::Pop => Op::Pop,
            Insn::Dup => Op::Dup,
            Insn::Swap => Op::Swap,
            Insn::Over(k) => Op::Over(k),
            Insn::Neg => Op::Neg,
            Insn::Jmp(t) if fits(t) => Op::Jmp(t),
            Insn::Jz(t) if fits(t) => Op::Jz(t),
            Insn::Jnz(t) if fits(t) => Op::Jnz(t),
            Insn::Jmp(t) => Op::JmpBad(t),
            Insn::Jz(t) => Op::JzBad(t),
            Insn::Jnz(t) => Op::JnzBad(t),
            Insn::Load8 => Op::Load8,
            Insn::Store8 => Op::Store8,
            Insn::Load64 => Op::Load64,
            Insn::Store64 => Op::Store64,
            Insn::ReadInput => Op::ReadInput,
            Insn::OutOpen => Op::OutOpen,
            Insn::OutWrite => Op::OutWrite,
            Insn::PrintNum => Op::PrintNum,
            Insn::PrintMem => Op::PrintMem,
            Insn::ArgLen => Op::ArgLen,
            Insn::ArgRead => Op::ArgRead,
            Insn::Halt => Op::Halt,
            binary => Op::Bin(Bin::of(binary).expect("every other instruction is binary")),
        }
    }

    /// The longest step that starts at `at`: a fused idiom of two or
    /// three instructions, or the plain instruction. Every index gets
    /// its own step, so a jump into the middle of an idiom lands on the
    /// instructions from there on.
    fn lower(self, code: &[Insn], at: usize) -> Step {
        let op = |i: usize| self.plain(code, i);
        let step = |op, width| Step { op, width };
        let jump = |i: usize| match op(i) {
            Op::Jz(t) => Some((false, t)),
            Op::Jnz(t) => Some((true, t)),
            _ => None,
        };
        match (op(at), op(at + 1)) {
            (Op::Push(k), Op::Bin(f)) if f.is_comparison() => {
                if let Some((on, t)) = jump(at + 2) {
                    return step(Op::CmpKJump(f, on, k, t), 3);
                }
                step(Op::BinK(f, k), 2)
            }
            (Op::Push(v), Op::Push(addr)) => match (op(at + 2), u32::try_from(addr)) {
                (Op::Load64, Ok(addr)) => step(Op::PushLoad64(v, addr), 3),
                _ => step(Op::Push(v), 1),
            },
            (Op::Push(k), Op::Bin(f)) => step(Op::BinK(f, k), 2),
            (Op::Push(k), Op::Load8) => step(Op::Load8K(k), 2),
            (Op::Push(k), Op::Load64) => step(Op::Load64K(k), 2),
            (Op::Push(k), Op::ReadInput) => step(Op::ReadInputK(k), 2),
            (first, _) => step(first, 1),
        }
    }
}

/// The little-endian word in an 8-byte memory range.
#[inline(always)]
fn word(bytes: &[u8]) -> i64 {
    i64::from_le_bytes(bytes.try_into().expect("8 bytes"))
}

/// The memory range `addr..addr + len`, growing memory to hold it; a
/// negative operand or an end past `max` is a `MemoryViolation`.
#[inline(always)]
fn mem_range(
    mem: &mut Vec<u8>,
    addr: i64,
    len: i64,
    max: usize,
) -> Result<std::ops::Range<usize>, VmError> {
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
}

/// `READINPUT`: copy `input[off..off + len]` to memory at `dst`.
fn read_input(
    mem: &mut Vec<u8>,
    input: &[u8],
    dst: i64,
    off: i64,
    len: i64,
    max: usize,
) -> Result<(), VmError> {
    let src = usize::try_from(off)
        .ok()
        .zip(usize::try_from(len).ok())
        .and_then(|(off, len)| Some(off..off.checked_add(len)?))
        .filter(|src| src.end <= input.len())
        .ok_or(VmError::InputRange {
            off: off.max(0) as u64,
            len: len.max(0) as u64,
        })?;
    let r = mem_range(mem, dst, len, max)?;
    mem[r].copy_from_slice(&input[src]);
    Ok(())
}

/// Parameter `i`, or `BadArg`.
fn param(params: &[String], i: i64) -> Result<&String, VmError> {
    usize::try_from(i)
        .ok()
        .and_then(|i| params.get(i))
        .ok_or(VmError::BadArg(i))
}

/// Output names must be clean relative filenames — the confinement the
/// paper achieves with per-job temporary directories.
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

#[cfg(test)]
mod tests {
    use super::*;

    fn run(code: Vec<Insn>, input: &[u8], params: &[&str]) -> Result<RunOutput, VmError> {
        let params: Vec<String> = params.iter().map(|s| s.to_string()).collect();
        Vm::new(Limits::default()).run(&Program { code }, input, &params)
    }

    #[test]
    fn arithmetic_and_print() {
        let out = run(
            vec![
                Insn::Push(6),
                Insn::Push(7),
                Insn::Mul,
                Insn::PrintNum,
                Insn::Halt,
            ],
            b"",
            &[],
        )
        .unwrap();
        assert_eq!(out.stdout, "42\n");
        assert_eq!(out.instructions, 5);
    }

    #[test]
    #[allow(clippy::vec_init_then_push)]
    fn loop_sums_input_bytes() {
        // sum = 0; for i in 0..len { sum += input[i] } print sum
        // Layout: mem[0..8]=i, mem[8..16]=sum, byte buffer at 16.
        let code = {
            let mut c: Vec<Insn> = Vec::new();
            // loop_start = 0
            c.push(Insn::Push(0)); // 0
            c.push(Insn::Load64); // 1  i
            c.push(Insn::InputSize); // 2
            c.push(Insn::Lt); // 3
            let jz_at = c.len();
            c.push(Insn::Jz(0)); // patched to end
            c.push(Insn::Push(16)); // dst
            c.push(Insn::Push(0));
            c.push(Insn::Load64); // off=i
            c.push(Insn::Push(1));
            c.push(Insn::ReadInput);
            c.push(Insn::Push(8)); // addr of sum
            c.push(Insn::Push(8));
            c.push(Insn::Load64); // sum
            c.push(Insn::Push(16));
            c.push(Insn::Load8); // byte
            c.push(Insn::Add);
            c.push(Insn::Store64);
            c.push(Insn::Push(0)); // addr of i
            c.push(Insn::Push(0));
            c.push(Insn::Load64);
            c.push(Insn::Push(1));
            c.push(Insn::Add);
            c.push(Insn::Store64);
            c.push(Insn::Jmp(0));
            let end = c.len() as u32;
            c[jz_at] = Insn::Jz(end);
            c.push(Insn::Push(8));
            c.push(Insn::Load64);
            c.push(Insn::PrintNum);
            c.push(Insn::Halt);
            c
        };
        let out = run(code, &[1, 2, 3, 250], &[]).unwrap();
        assert_eq!(out.stdout, "256\n");
    }

    #[test]
    fn output_files() {
        // Write "hi" to out.txt: store 'h','i' at 0,1; name at 8.
        let code = vec![
            Insn::Push(0),
            Insn::Push(b'h' as i64),
            Insn::Store8,
            Insn::Push(1),
            Insn::Push(b'i' as i64),
            Insn::Store8,
            Insn::Push(8),
            Insn::Push(b'o' as i64),
            Insn::Store8,
            Insn::Push(9),
            Insn::Push(b'.' as i64),
            Insn::Store8,
            Insn::Push(10),
            Insn::Push(b't' as i64),
            Insn::Store8,
            Insn::Push(8), // name addr
            Insn::Push(3), // name len
            Insn::OutOpen,
            Insn::Push(0), // data addr
            Insn::Push(2), // data len
            Insn::OutWrite,
            Insn::Halt,
        ];
        let out = run(code, b"", &[]).unwrap();
        assert_eq!(out.files["o.t"], b"hi".to_vec());
    }

    #[test]
    fn params_accessible() {
        // print ArgCount then first param.
        let code = vec![
            Insn::ArgCount,
            Insn::PrintNum,
            Insn::Push(0), // index
            Insn::Push(0), // dst
            Insn::ArgRead,
            Insn::Push(0),
            Insn::Push(5),
            Insn::PrintMem,
            Insn::Halt,
        ];
        let out = run(code, b"", &["slice", "u"]).unwrap();
        assert_eq!(out.stdout, "2\nslice");
    }

    #[test]
    fn budget_stops_infinite_loop() {
        let mut vm = Vm::new(Limits {
            max_instructions: 10_000,
            ..Limits::default()
        });
        let err = vm
            .run(
                &Program {
                    code: vec![Insn::Jmp(0)],
                },
                b"",
                &[],
            )
            .unwrap_err();
        assert_eq!(err, VmError::BudgetExhausted);
    }

    #[test]
    fn memory_cap_enforced() {
        let mut vm = Vm::new(Limits {
            max_memory: 1024,
            ..Limits::default()
        });
        let err = vm
            .run(
                &Program {
                    code: vec![Insn::Push(5000), Insn::Load8, Insn::Halt],
                },
                b"",
                &[],
            )
            .unwrap_err();
        assert!(matches!(err, VmError::MemoryViolation { .. }));
    }

    #[test]
    fn output_quota_enforced() {
        // Repeatedly print to exceed a tiny quota.
        let mut vm = Vm::new(Limits {
            max_output: 100,
            ..Limits::default()
        });
        let code = vec![Insn::Push(123456789), Insn::PrintNum, Insn::Jmp(0)];
        let err = vm.run(&Program { code }, b"", &[]).unwrap_err();
        assert_eq!(err, VmError::OutputQuota);
    }

    #[test]
    fn sandbox_rejects_escaping_filenames() {
        for bad in ["../x", "/etc/passwd", "a\\b", "", "nul\0byte"] {
            assert!(validate_filename(bad).is_err(), "{bad:?}");
        }
        for ok in ["out.ppm", "dir/result.txt", "a-b_c.1"] {
            assert!(validate_filename(ok).is_ok(), "{ok:?}");
        }
    }

    #[test]
    fn input_bounds_checked() {
        let code = vec![
            Insn::Push(0),
            Insn::Push(0),
            Insn::Push(100),
            Insn::ReadInput,
            Insn::Halt,
        ];
        let err = run(code, b"short", &[]).unwrap_err();
        assert!(matches!(err, VmError::InputRange { .. }));
    }

    #[test]
    fn an_input_range_past_the_word_is_out_of_range() {
        // off + len overflows i64: the range is out of the input, not a
        // panic (debug) or a wrapped sum (release).
        let code = vec![
            Insn::Push(0),
            Insn::Push(i64::MAX),
            Insn::Push(1),
            Insn::ReadInput,
            Insn::Halt,
        ];
        assert_eq!(
            run(code, b"short", &[]).unwrap_err(),
            VmError::InputRange {
                off: i64::MAX as u64,
                len: 1
            }
        );
    }

    #[test]
    fn the_checksum_loop_lowers_to_half_its_dispatches() {
        let program = crate::asm::assemble(crate::asm::EXAMPLE_CHECKSUM).unwrap();
        let run = Run {
            input_size: 1 << 15,
            arg_count: 1,
        };
        let steps: Vec<Step> = (0..=program.code.len())
            .map(|at| run.lower(&program.code, at))
            .collect();
        // The loop runs from 0 to its `JMP loop`, leaving through the
        // `JZ done` near its top only when the input is exhausted.
        let (mut pc, mut dispatches, mut width) = (0, 0, 0);
        loop {
            let step = steps[pc];
            dispatches += 1;
            width += step.width;
            if matches!(step.op, Op::Jmp(0)) {
                break;
            }
            pc += step.width as usize;
        }
        assert_eq!(width, 24, "the loop body is 24 instructions");
        assert!(dispatches <= 12, "{dispatches} dispatches");
    }

    #[test]
    fn error_cases() {
        assert_eq!(
            run(vec![Insn::Pop, Insn::Halt], b"", &[]).unwrap_err(),
            VmError::StackViolation
        );
        assert_eq!(
            run(
                vec![Insn::Push(1), Insn::Push(0), Insn::Div, Insn::Halt],
                b"",
                &[]
            )
            .unwrap_err(),
            VmError::DivideByZero
        );
        assert_eq!(
            run(vec![Insn::Push(1)], b"", &[]).unwrap_err(),
            VmError::NoHalt
        );
        assert_eq!(
            run(
                vec![Insn::Push(0), Insn::Push(1), Insn::OutWrite, Insn::Halt],
                b"",
                &[]
            )
            .unwrap_err(),
            VmError::NoOutputOpen
        );
        assert_eq!(
            run(vec![Insn::Push(9), Insn::ArgLen, Insn::Halt], b"", &[]).unwrap_err(),
            VmError::BadArg(9)
        );
    }

    #[test]
    fn progress_callback_fires() {
        use std::cell::Cell;
        use std::rc::Rc;
        let hits = Rc::new(Cell::new(0u32));
        let h2 = hits.clone();
        let mut vm = Vm::new(Limits {
            max_instructions: 200_000,
            ..Limits::default()
        })
        .with_progress(move |done, budget| {
            assert!(done <= budget);
            h2.set(h2.get() + 1);
        });
        let err = vm
            .run(
                &Program {
                    code: vec![Insn::Jmp(0)],
                },
                b"",
                &[],
            )
            .unwrap_err();
        assert_eq!(err, VmError::BudgetExhausted);
        assert!(hits.get() >= 2, "progress reported: {}", hits.get());
    }
}
