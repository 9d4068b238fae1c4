//! The EPC assembler: uploaded code travels as readable text.
//!
//! Syntax: one instruction per line, `;` comments, `label:` definitions,
//! jump targets by label. String data can be staged into memory with the
//! `DATA addr "text"` pseudo-instruction (expands to Store8 sequences).
//!
//! ```text
//! ; count input bytes
//!         INPUTSIZE
//!         PRINTNUM
//!         HALT
//! ```

use crate::vm::{Insn, Program};
use std::collections::BTreeMap;

/// Assembly error with line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based source line.
    pub line: usize,
    /// Description.
    pub msg: String,
}

impl std::fmt::Display for AsmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "assembly error at line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for AsmError {}

enum Pending {
    Ready(Insn),
    Jump {
        kind: JumpKind,
        label: String,
        line: usize,
    },
}

enum JumpKind {
    Jmp,
    Jz,
    Jnz,
}

/// Assemble EPC source text into a program.
pub fn assemble(src: &str) -> Result<Program, AsmError> {
    let mut labels: BTreeMap<String, u32> = BTreeMap::new();
    let mut pending: Vec<Pending> = Vec::new();

    for (lineno, raw) in src.lines().enumerate() {
        let line = lineno + 1;
        let text = match raw.find(';') {
            Some(i) => &raw[..i],
            None => raw,
        };
        let text = text.trim();
        if text.is_empty() {
            continue;
        }
        // Label definitions (possibly followed by an instruction).
        let mut rest = text;
        while let Some(colon) = rest.find(':') {
            let (label, after) = rest.split_at(colon);
            let label = label.trim();
            if label.is_empty() || !label.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
                break;
            }
            if labels
                .insert(label.to_string(), pending.len() as u32)
                .is_some()
            {
                return Err(AsmError {
                    line,
                    msg: format!("duplicate label {label}"),
                });
            }
            rest = after[1..].trim();
        }
        if rest.is_empty() {
            continue;
        }
        let mut parts = rest.split_whitespace();
        let op = parts.next().expect("non-empty").to_ascii_uppercase();
        let err = |msg: String| AsmError { line, msg };
        let int_arg = |parts: &mut dyn Iterator<Item = &str>| -> Result<i64, AsmError> {
            let a = parts
                .next()
                .ok_or_else(|| err(format!("{op} needs an argument")))?;
            a.parse::<i64>().or_else(|_| {
                // Character literal 'x'.
                let chars: Vec<char> = a.chars().collect();
                if chars.len() == 3 && chars[0] == '\'' && chars[2] == '\'' {
                    Ok(chars[1] as i64)
                } else {
                    Err(err(format!("bad integer argument {a:?}")))
                }
            })
        };
        match op.as_str() {
            "PUSH" => pending.push(Pending::Ready(Insn::Push(int_arg(&mut parts)?))),
            "POP" => pending.push(Pending::Ready(Insn::Pop)),
            "DUP" => pending.push(Pending::Ready(Insn::Dup)),
            "SWAP" => pending.push(Pending::Ready(Insn::Swap)),
            "OVER" => pending.push(Pending::Ready(Insn::Over(int_arg(&mut parts)? as u32))),
            "ADD" => pending.push(Pending::Ready(Insn::Add)),
            "SUB" => pending.push(Pending::Ready(Insn::Sub)),
            "MUL" => pending.push(Pending::Ready(Insn::Mul)),
            "DIV" => pending.push(Pending::Ready(Insn::Div)),
            "MOD" => pending.push(Pending::Ready(Insn::Mod)),
            "NEG" => pending.push(Pending::Ready(Insn::Neg)),
            "EQ" => pending.push(Pending::Ready(Insn::Eq)),
            "LT" => pending.push(Pending::Ready(Insn::Lt)),
            "GT" => pending.push(Pending::Ready(Insn::Gt)),
            "AND" => pending.push(Pending::Ready(Insn::And)),
            "OR" => pending.push(Pending::Ready(Insn::Or)),
            "XOR" => pending.push(Pending::Ready(Insn::Xor)),
            "JMP" | "JZ" | "JNZ" => {
                let label = parts
                    .next()
                    .ok_or_else(|| err(format!("{op} needs a label")))?
                    .to_string();
                let kind = match op.as_str() {
                    "JMP" => JumpKind::Jmp,
                    "JZ" => JumpKind::Jz,
                    _ => JumpKind::Jnz,
                };
                pending.push(Pending::Jump { kind, label, line });
            }
            "LOAD8" => pending.push(Pending::Ready(Insn::Load8)),
            "STORE8" => pending.push(Pending::Ready(Insn::Store8)),
            "LOAD64" => pending.push(Pending::Ready(Insn::Load64)),
            "STORE64" => pending.push(Pending::Ready(Insn::Store64)),
            "INPUTSIZE" => pending.push(Pending::Ready(Insn::InputSize)),
            "READINPUT" => pending.push(Pending::Ready(Insn::ReadInput)),
            "OUTOPEN" => pending.push(Pending::Ready(Insn::OutOpen)),
            "OUTWRITE" => pending.push(Pending::Ready(Insn::OutWrite)),
            "PRINTNUM" => pending.push(Pending::Ready(Insn::PrintNum)),
            "PRINTMEM" => pending.push(Pending::Ready(Insn::PrintMem)),
            "ARGCOUNT" => pending.push(Pending::Ready(Insn::ArgCount)),
            "ARGLEN" => pending.push(Pending::Ready(Insn::ArgLen)),
            "ARGREAD" => pending.push(Pending::Ready(Insn::ArgRead)),
            "HALT" => pending.push(Pending::Ready(Insn::Halt)),
            "DATA" => {
                // DATA <addr> "text": expand to per-byte stores.
                let addr = int_arg(&mut parts)?;
                let quoted_start = rest.find('"').ok_or_else(|| AsmError {
                    line,
                    msg: "DATA needs a quoted string".into(),
                })?;
                let tail = &rest[quoted_start + 1..];
                let end = tail.rfind('"').ok_or_else(|| AsmError {
                    line,
                    msg: "unterminated DATA string".into(),
                })?;
                let text = &tail[..end];
                for (i, b) in text.bytes().enumerate() {
                    let at = addr.checked_add(i as i64).ok_or_else(|| AsmError {
                        line,
                        msg: format!("DATA at {addr} runs past the largest address"),
                    })?;
                    pending.push(Pending::Ready(Insn::Push(at)));
                    pending.push(Pending::Ready(Insn::Push(i64::from(b))));
                    pending.push(Pending::Ready(Insn::Store8));
                }
            }
            other => {
                return Err(AsmError {
                    line,
                    msg: format!("unknown instruction {other}"),
                })
            }
        }
    }

    let mut code = Vec::with_capacity(pending.len());
    for p in pending {
        match p {
            Pending::Ready(i) => code.push(i),
            Pending::Jump { kind, label, line } => {
                let target = *labels.get(&label).ok_or(AsmError {
                    line,
                    msg: format!("undefined label {label}"),
                })?;
                code.push(match kind {
                    JumpKind::Jmp => Insn::Jmp(target),
                    JumpKind::Jz => Insn::Jz(target),
                    JumpKind::Jnz => Insn::Jnz(target),
                });
            }
        }
    }
    Ok(Program { code })
}

/// Canonical example: count the input's bytes and print the size —
/// the smallest useful "uploaded code".
pub const EXAMPLE_COUNT: &str = "\
; print the dataset size in bytes
    INPUTSIZE
    PRINTNUM
    HALT
";

/// Canonical example: checksum (sum of bytes mod 2^31) over the input.
pub const EXAMPLE_CHECKSUM: &str = "\
; mem[0]=i, mem[8]=sum, scratch byte at mem[16]
loop:
    PUSH 0
    LOAD64
    INPUTSIZE
    LT
    JZ done
    PUSH 16      ; dst
    PUSH 0
    LOAD64       ; off = i
    PUSH 1
    READINPUT
    PUSH 8
    PUSH 8
    LOAD64
    PUSH 16
    LOAD8
    ADD
    STORE64
    PUSH 0
    PUSH 0
    LOAD64
    PUSH 1
    ADD
    STORE64
    JMP loop
done:
    PUSH 8
    LOAD64
    PRINTNUM
    HALT
";

/// Canonical example: copy the first N bytes of the dataset to an
/// output file, where N is parameter 0 (a decimal string is not parsed
/// by the VM, so N arrives as the parameter's *length* times 16 for
/// simplicity in tests — real operations use PrintMem/args directly).
pub const EXAMPLE_HEAD: &str = "\
; write the first 64 bytes of the input to head.bin
    DATA 0 \"head.bin\"
    PUSH 0
    PUSH 8
    OUTOPEN
    PUSH 64      ; dst
    PUSH 0       ; off
    PUSH 64      ; len
    READINPUT
    PUSH 64
    PUSH 64
    OUTWRITE
    HALT
";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vm::{Limits, Vm};

    fn run_src(src: &str, input: &[u8], params: &[&str]) -> crate::vm::RunOutput {
        let program = assemble(src).unwrap();
        let params: Vec<String> = params.iter().map(|s| s.to_string()).collect();
        Vm::new(Limits::default())
            .run(&program, input, &params)
            .unwrap()
    }

    #[test]
    fn example_count() {
        let out = run_src(EXAMPLE_COUNT, &[0u8; 1234], &[]);
        assert_eq!(out.stdout, "1234\n");
    }

    #[test]
    fn example_checksum() {
        let out = run_src(EXAMPLE_CHECKSUM, &[1, 2, 3, 250], &[]);
        assert_eq!(out.stdout, "256\n");
    }

    #[test]
    fn example_head() {
        let input: Vec<u8> = (0..200u8).collect();
        let out = run_src(EXAMPLE_HEAD, &input, &[]);
        assert_eq!(out.files["head.bin"], input[..64].to_vec());
    }

    #[test]
    fn labels_forward_and_backward() {
        let src = "
            PUSH 1
            JNZ fwd
            PUSH 99
            PRINTNUM
        fwd:
            PUSH 3
        back:
            DUP
            JZ end
            PUSH 1
            SUB
            JMP back
        end:
            PRINTNUM
            HALT
        ";
        let out = run_src(src, b"", &[]);
        assert_eq!(out.stdout, "0\n");
    }

    #[test]
    fn char_literals_and_comments() {
        let src = "PUSH 'A' ; letter A\nPRINTNUM\nHALT";
        assert_eq!(run_src(src, b"", &[]).stdout, "65\n");
    }

    #[test]
    fn data_pseudo_instruction() {
        let src = "
            DATA 0 \"msg.txt\"
            PUSH 0
            PUSH 7
            OUTOPEN
            DATA 32 \"hello\"
            PUSH 32
            PUSH 5
            OUTWRITE
            HALT";
        let out = run_src(src, b"", &[]);
        assert_eq!(out.files["msg.txt"], b"hello".to_vec());
    }

    #[test]
    fn errors_reported_with_lines() {
        let err = assemble("PUSH 1\nFROBNICATE\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.msg.contains("FROBNICATE"));
        let err = assemble("JMP nowhere\nHALT").unwrap_err();
        assert!(err.msg.contains("undefined label"));
        let err = assemble("x: HALT\nx: HALT").unwrap_err();
        assert!(err.msg.contains("duplicate label"));
        let err = assemble("PUSH abc").unwrap_err();
        assert!(err.msg.contains("bad integer"));
        let err = assemble("PUSH").unwrap_err();
        assert!(err.msg.contains("needs an argument"));
    }

    #[test]
    fn data_past_the_largest_address_is_an_error() {
        let err = assemble("HALT\nDATA 9223372036854775807 \"ab\"\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.msg.contains("past the largest address"), "{}", err.msg);
        // The last byte may sit at the largest address itself.
        assert!(assemble("DATA 9223372036854775806 \"ab\"").is_ok());
    }

    #[test]
    fn uses_params() {
        let src = "
            ARGCOUNT
            PRINTNUM
            PUSH 0
            ARGLEN
            PRINTNUM
            HALT";
        let out = run_src(src, b"", &["x0", "pressure"]);
        assert_eq!(out.stdout, "2\n2\n");
    }
}
