//! The static gates are clippy's: the serving crates deny the panic lints in
//! their own manifests, `clippy.toml` bans raw locks and the sources of
//! nondeterminism, and CI's clippy step must not switch any of it back off.
//! This test keeps every half of that live, and adds the one check clippy
//! leaves out: float comparisons with zero in the statistics kernels. It
//! also holds DESIGN.md under a size ceiling, holds every crate path it
//! writes and every `DESIGN §N` cited elsewhere to the tree, and holds every
//! dependency a manifest declares to code that names it.

use std::path::{Path, PathBuf};

/// Crates whose non-test code serves requests and therefore must not panic
/// (PAPER.md §3: panics in request handling dominated U1 outages).
const SERVING_CRATES: &[&str] = &[
    "u1-server",
    "u1-proto",
    "u1-metastore",
    "u1-blobstore",
    "u1-notify",
    "u1-auth",
];

const PANIC_LINTS: &[&str] = &[
    "unwrap_used",
    "expect_used",
    "panic",
    "todo",
    "unimplemented",
    "unreachable",
];

/// Raw locks: every lock must be a `u1_core::sync` lock.
const DISALLOWED_TYPES: &[&str] = &["std::sync::Mutex", "std::sync::RwLock", "rand::rngs::OsRng"];

/// Wall-clock time and entropy: a run is a function of its seed.
const DISALLOWED_METHODS: &[&str] = &[
    "std::time::SystemTime::now",
    "rand::thread_rng",
    "rand::SeedableRng::from_entropy",
];

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).to_path_buf()
}

fn read(rel: &str) -> String {
    let path = workspace_root().join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// `(key, value)` pairs of the manifest's `[lints.clippy]` table, quotes
/// stripped from the values.
fn clippy_lints(manifest: &str) -> Vec<(String, String)> {
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != "[lints.clippy]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter_map(|l| {
            let (key, value) = l.split_once('=')?;
            Some((
                key.trim().to_string(),
                value.trim().trim_matches('"').to_string(),
            ))
        })
        .collect()
}

fn denies(manifest: &str, lint: &str) -> bool {
    clippy_lints(&read(manifest))
        .iter()
        .any(|(k, v)| k == lint && v == "deny")
}

#[test]
fn serving_crates_deny_the_panic_lints() {
    for krate in SERVING_CRATES {
        let manifest = format!("crates/{krate}/Cargo.toml");
        for lint in PANIC_LINTS {
            assert!(
                denies(&manifest, lint),
                "{manifest} must set `{lint} = \"deny\"` under [lints.clippy]"
            );
        }
    }
    // The wire crate also denies narrowing casts (64→32-bit framing bugs),
    // and the statistics crate float equality.
    assert!(denies(
        "crates/u1-proto/Cargo.toml",
        "cast_possible_truncation"
    ));
    assert!(denies("crates/u1-analytics/Cargo.toml", "float_cmp"));
}

#[test]
fn ci_clippy_step_allows_nothing_back() {
    let ci = read(".github/workflows/ci.yml");
    let step: Vec<&str> = ci
        .lines()
        .skip_while(|l| l.trim() != "- name: Clippy")
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with("- "))
        .collect();
    let step = step.join("\n");
    assert!(step.contains("cargo clippy"), "no Clippy step in ci.yml");
    assert!(step.contains("-D warnings"), "{step}");
    assert!(
        !step.contains("-A clippy::") && !step.contains("--allow"),
        "the clippy step must not override the crates' lint levels: {step}"
    );
    assert!(
        !ci.contains("u1-lint") && !ci.contains("lock-graph"),
        "the lock rule is checked by `u1_core::sync`, not by a CI step"
    );
}

/// The `path = "…"` entries of one of `clippy.toml`'s lists.
fn clippy_toml_paths(list: &str) -> Vec<String> {
    let toml = read("clippy.toml");
    let start = toml
        .find(&format!("{list} = ["))
        .unwrap_or_else(|| panic!("clippy.toml has no `{list}` list"));
    let body = &toml[start..];
    let body = &body[..body.find("\n]").unwrap_or(body.len())];
    body.split("path = \"")
        .skip(1)
        .filter_map(|rest| rest.split('"').next())
        .map(str::to_string)
        .collect()
}

#[test]
fn clippy_toml_bans_raw_locks_and_nondeterminism() {
    let types = clippy_toml_paths("disallowed-types");
    let methods = clippy_toml_paths("disallowed-methods");
    for path in DISALLOWED_TYPES {
        assert!(types.iter().any(|t| t == path), "{path} not in {types:?}");
    }
    for path in DISALLOWED_METHODS {
        assert!(
            methods.iter().any(|m| m == path),
            "{path} not in {methods:?}"
        );
    }
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn bans_are_lifted_only_where_allowed() {
    let root = workspace_root();
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        rust_files(&root.join(dir), &mut files);
    }
    for file in files {
        let rel = file.strip_prefix(&root).expect("under the root");
        let rel = rel.to_string_lossy().replace('\\', "/");
        let text = std::fs::read_to_string(&file).expect("readable source");
        if rel == "tests/clippy_gate.rs" {
            continue;
        }
        if text.contains("clippy::disallowed_types") {
            assert_eq!(
                rel, "crates/u1-core/src/sync.rs",
                "raw locks outside sync.rs"
            );
        }
        assert!(
            !text.contains("clippy::disallowed_methods"),
            "{rel}: wall-clock time and entropy are allowed nowhere"
        );
    }
}

/// `clippy::float_cmp` exempts comparisons with zero. In the statistics
/// kernels a value that should be zero often lands a rounding step away from
/// it, so `x == 0.0` and `x != 0.0` are banned there too: a sum that cannot
/// be negative takes `<= 0.0`, anything else a tolerance band.
#[test]
fn analytics_kernels_do_not_compare_floats_with_zero() {
    let mut files = Vec::new();
    rust_files(
        &workspace_root().join("crates/u1-analytics/src"),
        &mut files,
    );
    let mut found = Vec::new();
    for file in files {
        let text = std::fs::read_to_string(&file).expect("readable source");
        for (i, line) in text.lines().enumerate() {
            // Unit tests compare small exact inputs with exact expectations.
            if line.trim() == "#[cfg(test)]" {
                break;
            }
            let code = line.split("//").next().unwrap_or("");
            if compares_with_float_zero(code) {
                found.push(format!("{}:{}: {}", file.display(), i + 1, line.trim()));
            }
        }
    }
    assert!(
        found.is_empty(),
        "float compared with zero by `==` / `!=`:\n{}",
        found.join("\n")
    );
}

/// Whether an operand next to an `==` or `!=` in `code` is a float zero
/// literal (`0.0`, `0.`, `-0.0`, `0f64`, `0.0_f32`, …).
fn compares_with_float_zero(code: &str) -> bool {
    let token_char = |c: char| c.is_ascii_alphanumeric() || c == '.' || c == '_';
    ["==", "!="].iter().any(|op| {
        code.match_indices(op).any(|(at, _)| {
            let left = code[..at].trim_end();
            let left = &left[left.trim_end_matches(token_char).len()..];
            let right = code[at + 2..].trim_start().trim_start_matches('-');
            let right = &right[..right.len() - right.trim_start_matches(token_char).len()];
            is_float_zero(left) || is_float_zero(right)
        })
    })
}

fn is_float_zero(token: &str) -> bool {
    let digits = token
        .trim_end_matches("f64")
        .trim_end_matches("f32")
        .trim_end_matches('_');
    (token.contains('.') || digits.len() < token.len())
        && digits.starts_with('0')
        && digits.chars().all(|c| matches!(c, '0' | '.' | '_'))
}

#[test]
fn the_float_zero_scan_sees_both_sides_and_every_spelling() {
    for hit in [
        "if gini == 0.0 {",
        "0.0 != x",
        "x == -0.0",
        "a==0.",
        "t != 0f64",
        "t == 0.0_f32",
    ] {
        assert!(compares_with_float_zero(hit), "{hit}");
    }
    for miss in [
        "n == 0",
        "x <= 0.0",
        "x >= 0.0",
        "x == 10.0",
        "x == 0.5",
        "i != 0 && y < 0.0",
    ] {
        assert!(!compares_with_float_zero(miss), "{miss}");
    }
}

/// DESIGN.md's size ceiling in bytes. The document describes the system as
/// it is; measurements and history belong in CHANGES.md. A change may lower
/// the ceiling; raising it needs a reason stated in CHANGES.md.
const DESIGN_MAX_BYTES: usize = 49_511;

#[test]
fn design_doc_stays_under_its_ceiling() {
    let len = read("DESIGN.md").len();
    assert!(
        len <= DESIGN_MAX_BYTES,
        "DESIGN.md is {len} bytes, over its ceiling of {DESIGN_MAX_BYTES}: \
         describe the system as it is and move measurements and history to CHANGES.md"
    );
}

/// The workspace crates, by directory name under `crates/` (`u1-core`, …).
fn workspace_crates() -> Vec<String> {
    std::fs::read_dir(workspace_root().join("crates"))
        .expect("crates/")
        .map(|e| {
            let name = e.expect("directory entry").file_name();
            name.into_string().expect("utf-8 crate name")
        })
        .collect()
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Every crate path `text` writes: a workspace crate, spelled `u1_x`, `u1-x`
/// or `x`, then `::` and its segments; a trailing `{a, b}` group gives one
/// path per member. Each path is its crate's directory name and segments.
fn crate_paths(text: &str, crates: &[String]) -> Vec<(String, Vec<String>)> {
    let mut paths = Vec::new();
    for (at, _) in text.match_indices("::") {
        let head = &text[..at];
        let start = head.trim_end_matches(|c| is_ident(c) || c == '-').len();
        if head[..start].ends_with(':') {
            continue; // a later segment, not a path's first
        }
        let token = head[start..].replace('_', "-");
        let Some(krate) = crates
            .iter()
            .find(|k| **k == token || k.strip_prefix("u1-") == Some(token.as_str()))
        else {
            continue;
        };
        let mut rest = &text[at + 2..];
        let mut segments = Vec::new();
        loop {
            if let Some(group) = rest.strip_prefix('{') {
                let group = &group[..group.find('}').unwrap_or(group.len())];
                for member in group.split(',') {
                    let mut path = segments.clone();
                    path.extend(member.trim().split("::").map(str::to_string));
                    paths.push((krate.clone(), path));
                }
                break;
            }
            let len = rest.len() - rest.trim_start_matches(is_ident).len();
            if len == 0 {
                break;
            }
            segments.push(rest[..len].to_string());
            match rest[len..].strip_prefix("::") {
                Some(next) => rest = next,
                None => {
                    paths.push((krate.clone(), segments));
                    break;
                }
            }
        }
    }
    paths
}

fn words(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c| !is_ident(c)).filter(|w| !w.is_empty())
}

/// Whether the module source `source` declares `name` at its top level: as
/// a `mod`, as a `pub` item, or by re-exporting it with `pub use`.
fn declares(source: &str, name: &str) -> bool {
    const KEYWORDS: &[&str] = &[
        "pub", "crate", "mod", "fn", "struct", "enum", "trait", "type", "const", "static",
        "unsafe", "async",
    ];
    let line_starts = std::iter::once(0).chain(source.match_indices('\n').map(|(at, _)| at + 1));
    line_starts.map(|start| &source[start..]).any(|line| {
        if line.starts_with("pub use ") {
            words(&line[..line.find(';').unwrap_or(line.len())]).any(|w| w == name)
        } else if line.starts_with("pub") || line.starts_with("mod ") {
            let decl = line.lines().next().unwrap_or_default();
            words(decl).find(|w| !KEYWORDS.contains(w)) == Some(name)
        } else {
            false
        }
    })
}

/// Whether `segments` name something in the crate `crates/<krate>`. Modules
/// are followed through their files; the first segment with no file of its
/// own must be declared by the module reached (see [`declares`]). What
/// follows an item (a method, a variant) is not checked.
fn resolves(krate: &str, segments: &[String]) -> bool {
    let mut dir = workspace_root().join("crates").join(krate).join("src");
    let mut file = dir.join("lib.rs");
    for segment in segments {
        let flat = dir.join(format!("{segment}.rs"));
        let nested = dir.join(segment).join("mod.rs");
        let Some(next) = [flat, nested].into_iter().find(|f| f.is_file()) else {
            let source = std::fs::read_to_string(&file).unwrap_or_default();
            return declares(&source, segment);
        };
        file = next;
        dir = dir.join(segment);
    }
    true
}

/// The section numbers of DESIGN.md's headings: `4` for `## 4. …`, `13.1`
/// for `### 13.1 …`.
fn design_sections(design: &str) -> Vec<String> {
    design
        .lines()
        .filter_map(|l| {
            let rest = l.strip_prefix("## ").or_else(|| l.strip_prefix("### "))?;
            let number = rest.split_whitespace().next()?.trim_end_matches('.');
            number
                .starts_with(|c: char| c.is_ascii_digit())
                .then(|| number.to_string())
        })
        .collect()
}

/// Every section `text` cites as `DESIGN §N` or `DESIGN.md §N.M`.
fn design_citations(text: &str) -> Vec<String> {
    text.split("DESIGN")
        .skip(1)
        .filter_map(|rest| {
            let rest = rest.strip_prefix(".md").unwrap_or(rest);
            let rest = rest.trim_start().strip_prefix('§')?;
            let len = rest.len()
                - rest
                    .trim_start_matches(|c: char| c.is_ascii_digit() || c == '.')
                    .len();
            let number = rest[..len].trim_end_matches('.');
            // `DESIGN §N`, a placeholder, cites nothing.
            (!number.is_empty()).then(|| number.to_string())
        })
        .collect()
}

/// A smaller DESIGN.md stays true only if what it names exists: every crate
/// path it writes resolves in that crate, and every `DESIGN §N` cited from
/// the other documents and the sources is one of its headings. CHANGES.md
/// is history and is not checked.
#[test]
fn design_doc_names_only_what_exists() {
    let design = read("DESIGN.md");
    let crates = workspace_crates();
    let mut missing: Vec<String> = crate_paths(&design, &crates)
        .into_iter()
        .filter(|(krate, segments)| !resolves(krate, segments))
        .map(|(krate, segments)| {
            format!(
                "DESIGN.md names `{krate}::{}`, which crates/{krate} does not have",
                segments.join("::")
            )
        })
        .collect();

    let sections = design_sections(&design);
    let root = workspace_root();
    let mut citing: Vec<PathBuf> = [
        "README.md",
        "EXPERIMENTS.md",
        "ROADMAP.md",
        ".github/workflows/ci.yml",
        ".claude/skills/verify/SKILL.md",
    ]
    .iter()
    .map(|f| root.join(f))
    .collect();
    rust_files(&root.join("crates"), &mut citing);
    for file in citing {
        let rel = file.strip_prefix(&root).unwrap_or(&file).display();
        let text = std::fs::read_to_string(&file).unwrap_or_else(|e| panic!("{rel}: {e}"));
        for cited in design_citations(&text) {
            if !sections.contains(&cited) {
                missing.push(format!(
                    "{rel} cites DESIGN §{cited}, which has no such heading"
                ));
            }
        }
    }
    assert!(missing.is_empty(), "{}", missing.join("\n"));
}

/// The names a manifest's `table` (`[dependencies]`, …) declares, spelled as
/// code spells them (`u1-core` is `u1_core`).
fn declared_dependencies(manifest: &str, table: &str) -> Vec<String> {
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != table)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| l.split(['.', '=']).next())
        .map(|name| name.trim().replace('-', "_"))
        .collect()
}

/// Whether `text` names the crate `name` as `name::`, `use name` or
/// `name!`.
fn names_crate(text: &str, name: &str) -> bool {
    text.match_indices(name).any(|(at, _)| {
        let (before, after) = (&text[..at], &text[at + name.len()..]);
        let whole = !before.ends_with(is_ident) && !after.starts_with(is_ident);
        whole && (after.starts_with("::") || after.starts_with('!') || before.ends_with("use "))
    })
}

/// `text` with every comment and every string, byte-string and character
/// literal blanked to one space, so that only code is left to name a crate.
/// A `'` that opens no character literal is a lifetime's and stays.
fn code_only(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut i = 0;
    while let Some(c) = text[i..].chars().next() {
        let rest = &text[i..];
        let after_ident = text[..i].ends_with(is_ident);
        // Bytes of the literal or comment starting here, if one does.
        let skip = if rest.starts_with("//") {
            Some(rest.find('\n').unwrap_or(rest.len()))
        } else if rest.starts_with("/*") {
            let mut depth = 0;
            let mut j = 0;
            while j < rest.len() {
                if rest[j..].starts_with("/*") {
                    (depth, j) = (depth + 1, j + 2);
                } else if rest[j..].starts_with("*/") {
                    (depth, j) = (depth - 1, j + 2);
                    if depth == 0 {
                        break;
                    }
                } else {
                    j += rest[j..].chars().next().map_or(1, char::len_utf8);
                }
            }
            Some(j)
        } else if c == 'r' && !after_ident && rest[1..].trim_start_matches('#').starts_with('"') {
            let hashes = rest[1..].len() - rest[1..].trim_start_matches('#').len();
            let close = format!("\"{}", "#".repeat(hashes));
            let body = 2 + hashes;
            Some(
                rest[body..]
                    .find(&close)
                    .map_or(rest.len(), |e| body + e + close.len()),
            )
        } else if c == '"' {
            let mut j = 1;
            while let Some(d) = rest[j..].chars().next() {
                j += d.len_utf8();
                match d {
                    '\\' => j += rest[j..].chars().next().map_or(0, char::len_utf8),
                    '"' => break,
                    _ => {}
                }
            }
            Some(j)
        } else if c == '\'' {
            let mut chars = rest[1..].chars();
            match (chars.next(), chars.next()) {
                (Some('\\'), _) => rest[3..].find('\'').map(|e| 3 + e + 1),
                (Some(ch), Some('\'')) => Some(1 + ch.len_utf8() + 1),
                _ => None,
            }
        } else {
            None
        };
        match skip {
            Some(len) => {
                out.push(' ');
                i += len;
            }
            None => {
                out.push(c);
                i += c.len_utf8();
            }
        }
    }
    out
}

/// Whether a `.rs` file under one of `dirs` of `package` names `name` in
/// its code.
fn package_names(package: &Path, dirs: &[&str], name: &str) -> bool {
    let mut files = Vec::new();
    for dir in dirs {
        let dir = package.join(dir);
        if dir.is_dir() {
            rust_files(&dir, &mut files);
        }
    }
    files.iter().any(|file| {
        let text = std::fs::read_to_string(file).expect("readable source");
        names_crate(&code_only(&text), name)
    })
}

/// A crate that only a string literal or a comment spells is not used:
/// `DISALLOWED_METHODS` above spells `"rand::thread_rng"`.
#[test]
fn only_code_names_a_crate() {
    let text = r##"
        // rand::thread_rng is banned
        /* use rand; /* nested */ rand!() */
        const BANNED: &[&str] = &["rand::thread_rng", r#"rand::"x"#, "\"rand::y\""];
        const QUOTE: char = '"'; const ESC: char = '\'';
        fn f<'a>(x: &'a str) -> &'a str { x }
    "##;
    assert!(names_crate(text, "rand"), "the raw text names it");
    assert!(!names_crate(&code_only(text), "rand"));
    let code = format!("{text} fn g<'b>() -> u32 {{ rand::random() }}");
    assert!(names_crate(&code_only(&code), "rand"));
}

/// A manifest entry no code names still costs a build edge and misleads a
/// reader about what the crate uses. Every `[dependencies]` entry of the
/// root package and of each crate under `crates/` is named in its `src/`,
/// and every `[dev-dependencies]` entry in its `src/`, `tests/`, `benches/`
/// or `examples/`.
#[test]
fn every_declared_dependency_is_used() {
    let root = workspace_root();
    let mut packages = vec![root.clone()];
    packages.extend(
        workspace_crates()
            .iter()
            .map(|k| root.join("crates").join(k)),
    );
    let mut unused = Vec::new();
    for package in packages {
        let manifest_path = package.join("Cargo.toml");
        let manifest = std::fs::read_to_string(&manifest_path).expect("Cargo.toml");
        let rel = manifest_path
            .strip_prefix(&root)
            .unwrap_or(&manifest_path)
            .display();
        for (table, dirs) in [
            ("[dependencies]", &["src"][..]),
            (
                "[dev-dependencies]",
                &["src", "tests", "benches", "examples"][..],
            ),
        ] {
            for name in declared_dependencies(&manifest, table) {
                if !package_names(&package, dirs, &name) {
                    unused.push(format!("{rel} {table} {name}"));
                }
            }
        }
    }
    assert!(
        unused.is_empty(),
        "declared but named by no code:\n{}",
        unused.join("\n")
    );
}
