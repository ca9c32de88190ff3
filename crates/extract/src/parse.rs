//! The AArch64 text parser: raw `.s` source → a flat instruction list
//! plus the `armbar:` pragma declarations the lifter needs.
//!
//! The parser is purely syntactic — it validates mnemonics, operand
//! shapes, and pragma grammar, and records a [`SrcPos`] for every item so
//! later passes (and the `armbar lint <file.s>` CLI) can report
//! `line:col`-located diagnostics. Whether a symbol exists, a loop is
//! bounded, or a register holds a usable value is the lifter's business.
//!
//! # Accepted dialect
//!
//! * Instructions: `ldr`/`str`, `ldar`/`stlr`/`ldapr`, `ldxr`/`stxr`,
//!   `dmb`/`dsb` with an `ish`/`ishst`/`ishld` (or `sy`/`st`/`ld`)
//!   domain, `isb`, `mov`/`add`/`sub`/`eor`, `cbz`/`cbnz`/`b`, `nop`,
//!   `ret`.
//! * Registers: `x0`–`x30` (`w` aliases the same register; the model is
//!   untyped 64-bit), `xzr`/`wzr` reads as zero.
//! * Addressing: `[xN]` only — addresses are built with
//!   `ldr xN, =symbol` (literal-pool pseudo-instruction) and register
//!   arithmetic, which is how the lifter tracks address dependencies.
//! * Labels: `name:` on its own line or prefixing an instruction.
//! * Assembler directives (`.text`, `.global`, …) are ignored.
//! * Pragmas (in comments, so the file stays a valid assembler input):
//!   ```text
//!   // armbar: thread <entry-label>
//!   // armbar: shared <name> @ <loc> [= <init>]
//!   // armbar: private <name> @ <loc> for T<tid>
//!   // armbar: unroll <n>
//!   ```

use core::fmt;

use std::collections::HashMap;

/// A 1-based source position inside the parsed text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SrcPos {
    /// 1-based line number.
    pub line: usize,
    /// 1-based column of the offending token.
    pub col: usize,
}

/// A parse or lift failure, located in the source text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// Where in the source the problem is.
    pub pos: SrcPos,
    /// Human-readable description.
    pub msg: String,
}

impl AsmError {
    /// Construct an error at `pos`.
    #[must_use]
    pub fn new(pos: SrcPos, msg: impl Into<String>) -> AsmError {
        AsmError {
            pos,
            msg: msg.into(),
        }
    }
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.pos.line, self.pos.col, self.msg)
    }
}

impl std::error::Error for AsmError {}

/// The architectural zero register (`xzr`/`wzr`), one past `x30`.
pub const ZR: u8 = 31;

/// One operand of a parsed instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Operand {
    /// `xN` / `wN` (0–30), or [`ZR`] for `xzr`/`wzr`.
    Reg(u8),
    /// `#imm` (decimal or `0x` hex).
    Imm(u64),
    /// `=symbol` — the literal-pool address of a declared symbol.
    SymAddr(String),
    /// `[xN]` — dereference of the address in a register.
    Mem(u8),
    /// A bare identifier: a branch target.
    Label(String),
}

/// One parsed instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmInstr {
    /// Lower-cased mnemonic.
    pub mnemonic: String,
    /// Operands in source order.
    pub operands: Vec<Operand>,
    /// Position of the mnemonic.
    pub pos: SrcPos,
}

/// A `// armbar: thread <entry>` declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadDecl {
    /// The entry label the thread starts at.
    pub entry: String,
    /// Position of the pragma.
    pub pos: SrcPos,
}

/// A `shared`/`private` symbol declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymbolDecl {
    /// Symbol name.
    pub name: String,
    /// The `wmm` location it pins.
    pub loc: u8,
    /// Initial value, when declared.
    pub init: Option<u64>,
    /// `Some(tid)` for thread-private symbols.
    pub owner: Option<usize>,
    /// Position of the pragma.
    pub pos: SrcPos,
}

/// The parsed form of one `.s` file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmFile {
    /// Declared threads, in declaration order (= `wmm` thread order).
    pub threads: Vec<ThreadDecl>,
    /// Declared symbols.
    pub symbols: Vec<SymbolDecl>,
    /// The spin-unroll bound (`// armbar: unroll <n>`, default 1).
    pub unroll: usize,
    /// All instructions, file order, labels resolved to indices.
    pub instrs: Vec<AsmInstr>,
    /// Label → index of the next instruction (may be `instrs.len()`).
    pub labels: HashMap<String, usize>,
}

/// Mnemonics the lifter understands, used to reject unknown instructions
/// at parse time with a precise position.
const MNEMONICS: [&str; 19] = [
    "ldr", "str", "ldar", "stlr", "ldapr", "ldxr", "stxr", "dmb", "dsb", "isb", "mov", "add",
    "sub", "eor", "cbz", "cbnz", "b", "nop", "ret",
];

fn is_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == '.')
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
}

fn parse_u64(text: &str) -> Option<u64> {
    if let Some(hex) = text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        text.parse().ok()
    }
}

fn parse_register(token: &str) -> Option<u8> {
    match token {
        "xzr" | "wzr" => return Some(ZR),
        _ => {}
    }
    let rest = token
        .strip_prefix('x')
        .or_else(|| token.strip_prefix('w'))?;
    let n: u8 = rest.parse().ok()?;
    (n <= 30 && !rest.is_empty() && rest.chars().all(|c| c.is_ascii_digit())).then_some(n)
}

fn parse_operand(token: &str, pos: SrcPos) -> Result<Operand, AsmError> {
    if let Some(imm) = token.strip_prefix('#') {
        return parse_u64(imm)
            .map(Operand::Imm)
            .ok_or_else(|| AsmError::new(pos, format!("bad immediate `{token}`")));
    }
    if let Some(sym) = token.strip_prefix('=') {
        if !is_ident(sym) {
            return Err(AsmError::new(
                pos,
                format!("bad symbol reference `{token}`"),
            ));
        }
        return Ok(Operand::SymAddr(sym.to_string()));
    }
    if let Some(inner) = token.strip_prefix('[') {
        let Some(inner) = inner.strip_suffix(']') else {
            return Err(AsmError::new(
                pos,
                format!("unterminated address `{token}`"),
            ));
        };
        if inner.contains(',') {
            return Err(AsmError::new(
                pos,
                format!("unsupported addressing mode `{token}` (only `[xN]` is lifted; build the address with register arithmetic)"),
            ));
        }
        let Some(reg) = parse_register(inner.trim()) else {
            return Err(AsmError::new(
                pos,
                format!("bad base register in `{token}`"),
            ));
        };
        return Ok(Operand::Mem(reg));
    }
    if let Some(reg) = parse_register(token) {
        return Ok(Operand::Reg(reg));
    }
    if is_ident(token) {
        return Ok(Operand::Label(token.to_string()));
    }
    Err(AsmError::new(
        pos,
        format!("unrecognized operand `{token}`"),
    ))
}

/// Split an operand string at top-level commas (`[x0]` stays whole).
fn split_operands(text: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, c) in text.char_indices() {
        match c {
            '[' => depth += 1,
            ']' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                parts.push(text[start..i].trim());
                start = i + 1;
            }
            _ => {}
        }
    }
    let last = text[start..].trim();
    if !last.is_empty() || !parts.is_empty() {
        parts.push(last);
    }
    parts
}

fn parse_pragma(rest: &str, pos: SrcPos, file: &mut AsmFile) -> Result<(), AsmError> {
    let tokens: Vec<&str> = rest.split_whitespace().collect();
    match tokens.as_slice() {
        ["thread", entry] if is_ident(entry) => {
            file.threads.push(ThreadDecl {
                entry: (*entry).to_string(),
                pos,
            });
            Ok(())
        }
        ["unroll", n] => {
            let bound: usize =
                n.parse().ok().filter(|&b| b >= 1).ok_or_else(|| {
                    AsmError::new(pos, format!("bad unroll bound `{n}` (want >= 1)"))
                })?;
            file.unroll = bound;
            Ok(())
        }
        ["shared", name, "@", loc, rest @ ..] if is_ident(name) => {
            let loc: u8 = loc
                .parse()
                .map_err(|_| AsmError::new(pos, format!("bad location `{loc}` (want 0-255)")))?;
            let init = match rest {
                [] => None,
                ["=", v] => Some(
                    parse_u64(v)
                        .ok_or_else(|| AsmError::new(pos, format!("bad init value `{v}`")))?,
                ),
                _ => return Err(AsmError::new(pos, "malformed shared declaration")),
            };
            push_symbol(file, (*name).to_string(), loc, init, None, pos)
        }
        ["private", name, "@", loc, "for", tid] if is_ident(name) => {
            let loc: u8 = loc
                .parse()
                .map_err(|_| AsmError::new(pos, format!("bad location `{loc}` (want 0-255)")))?;
            let owner: usize = tid
                .strip_prefix('T')
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| AsmError::new(pos, format!("bad thread id `{tid}` (want T<n>)")))?;
            push_symbol(file, (*name).to_string(), loc, None, Some(owner), pos)
        }
        _ => Err(AsmError::new(
            pos,
            format!("unrecognized armbar pragma `{rest}`"),
        )),
    }
}

fn push_symbol(
    file: &mut AsmFile,
    name: String,
    loc: u8,
    init: Option<u64>,
    owner: Option<usize>,
    pos: SrcPos,
) -> Result<(), AsmError> {
    if file.symbols.iter().any(|s| s.name == name) {
        return Err(AsmError::new(pos, format!("duplicate symbol `{name}`")));
    }
    if let Some(prev) = file.symbols.iter().find(|s| s.loc == loc) {
        return Err(AsmError::new(
            pos,
            format!("location {loc} already bound to symbol `{}`", prev.name),
        ));
    }
    file.symbols.push(SymbolDecl {
        name,
        loc,
        init,
        owner,
        pos,
    });
    Ok(())
}

/// Parse AArch64 source text into an [`AsmFile`].
///
/// # Errors
///
/// Returns a position-carrying [`AsmError`] on the first unknown
/// mnemonic, malformed operand, bad pragma, or duplicate label/symbol.
pub fn parse(src: &str) -> Result<AsmFile, AsmError> {
    let mut file = AsmFile {
        threads: Vec::new(),
        symbols: Vec::new(),
        unroll: 1,
        instrs: Vec::new(),
        labels: HashMap::new(),
    };
    for (line_idx, raw) in src.lines().enumerate() {
        let line_no = line_idx + 1;
        // Pragmas live inside comments; detect them before stripping.
        let trimmed = raw.trim_start();
        let indent = raw.len() - trimmed.len();
        if let Some(comment) = trimmed.strip_prefix("//") {
            let comment = comment.trim_start();
            if let Some(pragma) = comment.strip_prefix("armbar:") {
                let col = indent + 1;
                parse_pragma(pragma.trim(), SrcPos { line: line_no, col }, &mut file)?;
            }
            continue;
        }
        // Strip trailing comments from code lines.
        let code = match trimmed.split_once("//") {
            Some((c, _)) => c.trim_end(),
            None => trimmed.trim_end(),
        };
        if code.is_empty() {
            continue;
        }
        let mut text = code;
        let mut col = indent + 1;
        // Leading `label:` prefix.
        if let Some(colon) = text.find(':') {
            let (head, tail) = text.split_at(colon);
            if is_ident(head.trim()) {
                let label = head.trim().to_string();
                let pos = SrcPos { line: line_no, col };
                if file.labels.contains_key(&label) {
                    return Err(AsmError::new(pos, format!("duplicate label `{label}`")));
                }
                file.labels.insert(label, file.instrs.len());
                let rest = &tail[1..];
                let rest_trimmed = rest.trim_start();
                col += colon + 1 + (rest.len() - rest_trimmed.len());
                text = rest_trimmed.trim_end();
                if text.is_empty() {
                    continue;
                }
            }
        }
        // Assembler directives are passed over.
        if text.starts_with('.') {
            continue;
        }
        let pos = SrcPos { line: line_no, col };
        let (mnemonic, rest) = match text.split_once(char::is_whitespace) {
            Some((m, r)) => (m, r.trim()),
            None => (text, ""),
        };
        let mnemonic = mnemonic.to_ascii_lowercase();
        if !MNEMONICS.contains(&mnemonic.as_str()) {
            return Err(AsmError::new(pos, format!("unknown mnemonic `{mnemonic}`")));
        }
        let mut operands = Vec::new();
        if !rest.is_empty() {
            for token in split_operands(rest) {
                operands.push(parse_operand(token, pos)?);
            }
        }
        file.instrs.push(AsmInstr {
            mnemonic,
            operands,
            pos,
        });
    }
    Ok(file)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_minimal_file() {
        let src = "\
// armbar: thread t0
// armbar: shared flag @ 0
t0:
    ldr x1, =flag
    mov x2, #1
    str x2, [x1]
    ret
";
        let f = parse(src).expect("parses");
        assert_eq!(f.threads.len(), 1);
        assert_eq!(f.symbols.len(), 1);
        assert_eq!(f.instrs.len(), 4);
        assert_eq!(f.labels["t0"], 0);
        assert_eq!(f.instrs[0].operands[1], Operand::SymAddr("flag".into()));
        assert_eq!(f.instrs[2].operands, vec![Operand::Reg(2), Operand::Mem(1)]);
    }

    #[test]
    fn unknown_mnemonic_is_located() {
        let src = "// armbar: thread t0\nt0:\n    frobnicate x1, x2\n";
        let e = parse(src).unwrap_err();
        assert_eq!((e.pos.line, e.pos.col), (3, 5));
        assert!(e.msg.contains("frobnicate"), "{e}");
    }

    #[test]
    fn pragma_grammar_is_checked() {
        assert!(parse("// armbar: thread t0\n// armbar: unroll 0\n").is_err());
        assert!(parse("// armbar: shared a @ 999\n").is_err());
        assert!(parse("// armbar: blorp\n").is_err());
        let f = parse("// armbar: shared a @ 3 = 7\n// armbar: private b @ 4 for T1\n").unwrap();
        assert_eq!(f.symbols[0].init, Some(7));
        assert_eq!(f.symbols[1].owner, Some(1));
    }

    #[test]
    fn duplicate_labels_and_symbols_are_rejected() {
        assert!(parse("a:\n nop\na:\n nop\n").is_err());
        assert!(parse("// armbar: shared a @ 1\n// armbar: shared a @ 2\n").is_err());
        assert!(parse("// armbar: shared a @ 1\n// armbar: shared b @ 1\n").is_err());
    }

    #[test]
    fn zero_register_and_hex_immediates() {
        let f = parse("t0:\n mov x1, xzr\n mov x2, #0x10\n").unwrap();
        assert_eq!(f.instrs[0].operands[1], Operand::Reg(ZR));
        assert_eq!(f.instrs[1].operands[1], Operand::Imm(16));
    }

    #[test]
    fn pair_addressing_is_rejected_with_hint() {
        let e = parse("t0:\n ldr x1, [x2, x3]\n").unwrap_err();
        assert!(e.msg.contains("addressing mode"), "{e}");
    }
}
