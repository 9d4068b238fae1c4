//! Allocations of the sandbox's I/O instructions.
//!
//! OUTWRITE appends memory straight to the open output file, ARGREAD
//! copies a parameter straight into memory and PRINTNUM formats into
//! stdout itself, so a thousand of each allocate no more than a run of
//! a few does, beyond the doublings of the output they grow. When
//! OUTWRITE cloned the file's name and copied its bytes through a
//! temporary vector, ARGREAD cloned the parameter and PRINTNUM went
//! through a `String`, each call allocated once or twice.
//!
//! One test only: the allocation counter is process-wide.

use easia_ops::vm::{Insn, Limits, Program, Vm};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{counted, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const CALLS: usize = 1_000;

/// Allocations one run may make: the lowered program, the stack,
/// memory, the output file and its name, and the ≈ 10 doublings of an
/// output of a few thousand bytes.
const CEILING: u64 = 32;

/// `setup`, then `call` repeated, then HALT: the run's allocations.
fn allocations(setup: &[Insn], call: &[Insn], params: &[String]) -> u64 {
    let mut code = setup.to_vec();
    for _ in 0..CALLS {
        code.extend_from_slice(call);
    }
    code.push(Insn::Halt);
    let program = Program { code };
    let mut vm = Vm::new(Limits::default());
    let (out, counts) = counted(|| vm.run(&program, b"", params));
    assert!(out.is_ok(), "{out:?}");
    counts.allocs
}

#[test]
fn a_thousand_io_calls_allocate_a_constant() {
    // Name "o" at 0, eight data bytes at 8.
    let open = [
        Insn::Push(0),
        Insn::Push(i64::from(b'o')),
        Insn::Store8,
        Insn::Push(8),
        Insn::Push(0x0102_0304_0506_0708),
        Insn::Store64,
        Insn::Push(0),
        Insn::Push(1),
        Insn::OutOpen,
    ];
    let writes = allocations(&open, &[Insn::Push(8), Insn::Push(8), Insn::OutWrite], &[]);
    let params = vec!["pressure".to_string()];
    let reads = allocations(
        &[],
        &[Insn::Push(0), Insn::Push(16), Insn::ArgRead],
        &params,
    );
    let prints = allocations(&[], &[Insn::Push(-1234567), Insn::PrintNum], &[]);
    println!("{CALLS} OUTWRITEs: {writes} allocations, ARGREADs: {reads}, PRINTNUMs: {prints}");
    for (what, allocs) in [
        ("OUTWRITE", writes),
        ("ARGREAD", reads),
        ("PRINTNUM", prints),
    ] {
        assert!(
            allocs <= CEILING,
            "{CALLS} {what}s allocated {allocs} times"
        );
    }
}
