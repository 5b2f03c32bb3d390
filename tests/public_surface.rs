//! The workspace's public surface is closed: every `pub fn`, `pub const`
//! and `pub static` of a library crate has a user outside that crate.
//!
//! Every caller of every crate lives in this repository, so a `pub` item
//! that nothing outside its crate names is crate-private in all but
//! spelling. Narrowing it to `pub(crate)` hands it to rustc's `dead_code`
//! lint, which the CI clippy step turns into an error; this test keeps
//! new items from slipping past that by staying `pub`.
//!
//! "Outside" is any `.rs` file other than the crate's own library
//! sources: other crates, the crate's `tests/` and `benches/`, its
//! `src/main.rs` and `src/bin/`, the root `tests/` and `examples/`, and
//! `perfbench/`. Doc-test code blocks in the crate's own sources count
//! as outside too, since rustdoc compiles them against the public API.
//! The match is by name, as a whole word anywhere in those files
//! (comments included), so it can only err toward "used": it is a lower
//! bound on dead surface, never a false alarm. The vendored
//! `*-shim` crates, `#[cfg(test)]` items, and the `golden.rs` test pins
//! are not checked.

use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};

/// Directories never searched: build output and VCS metadata.
const SKIP_DIRS: [&str; 3] = ["target", ".git", ".bench_build"];

/// Library sources whose items are not checked (test pins).
const SKIP_FILES: [&str; 1] = ["golden.rs"];

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under `dir`, skipping build output and hidden dirs.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<_> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|e| e.expect("directory entry").path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if !name.starts_with('.') && !SKIP_DIRS.contains(&name) {
                rust_files(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Blanks comments and the contents of string and char literals with
/// spaces (newlines kept), so braces and keywords can be scanned on what
/// is left.
fn mask(src: &str) -> Vec<char> {
    let c: Vec<char> = src.chars().collect();
    let mut out = c.clone();
    let blank = |out: &mut Vec<char>, from: usize, to: usize| {
        for ch in &mut out[from..to] {
            if *ch != '\n' {
                *ch = ' ';
            }
        }
    };
    let ident = |ch: char| ch.is_alphanumeric() || ch == '_';
    let mut i = 0;
    while i < c.len() {
        let next = c.get(i + 1).copied();
        if c[i] == '/' && next == Some('/') {
            let end = c[i..]
                .iter()
                .position(|&ch| ch == '\n')
                .map_or(c.len(), |p| i + p);
            blank(&mut out, i, end);
            i = end;
        } else if c[i] == '/' && next == Some('*') {
            let (mut depth, mut j) = (1, i + 2);
            while j < c.len() && depth > 0 {
                if c[j] == '/' && c.get(j + 1) == Some(&'*') {
                    depth += 1;
                    j += 2;
                } else if c[j] == '*' && c.get(j + 1) == Some(&'/') {
                    depth -= 1;
                    j += 2;
                } else {
                    j += 1;
                }
            }
            blank(&mut out, i, j);
            i = j;
        } else if c[i] == 'r' && (i == 0 || !ident(c[i - 1])) && matches!(next, Some('"' | '#')) {
            // Raw string `r"…"` / `r#"…"#`, or an `r#ident` raw identifier.
            let hashes = c[i + 1..].iter().take_while(|&&ch| ch == '#').count();
            let open = i + 1 + hashes;
            if c.get(open) != Some(&'"') {
                i = open;
                continue;
            }
            let mut j = open + 1;
            while j < c.len()
                && !(c[j] == '"'
                    && c[j + 1..]
                        .iter()
                        .take(hashes)
                        .filter(|&&h| h == '#')
                        .count()
                        == hashes)
            {
                j += 1;
            }
            blank(&mut out, open + 1, j.min(c.len()));
            i = j + 1 + hashes;
        } else if c[i] == '"' {
            let mut j = i + 1;
            while j < c.len() && c[j] != '"' {
                j += if c[j] == '\\' { 2 } else { 1 };
            }
            blank(&mut out, i + 1, j.min(c.len()));
            i = j + 1;
        } else if c[i] == '\'' {
            // A char literal ('x', '\n', '\u{..}'); anything else is a lifetime.
            let end = if next == Some('\\') {
                c[i + 2..]
                    .iter()
                    .position(|&ch| ch == '\'')
                    .map(|p| i + 2 + p)
            } else if c.get(i + 2) == Some(&'\'') {
                Some(i + 2)
            } else {
                None
            };
            match end {
                Some(end) => {
                    blank(&mut out, i + 1, end);
                    i = end + 1;
                }
                None => i += 1,
            }
        } else {
            i += 1;
        }
    }
    out
}

/// The masked source with every `#[cfg(test)]` item removed: the item
/// ends at its first top-level `;`, or at the brace closing its body.
fn without_test_items(masked: &[char]) -> String {
    const ATTR: &str = "#[cfg(test)]";
    let text: String = masked.iter().collect();
    let mut out = String::new();
    let mut rest = text.as_str();
    while let Some(at) = rest.find(ATTR) {
        out.push_str(&rest[..at]);
        let item = &rest[at + ATTR.len()..];
        let mut depth = 0usize;
        let mut end = item.len();
        for (k, ch) in item.char_indices() {
            match ch {
                '{' => depth += 1,
                // A `}` at depth 0 closes the enclosing block: the gated
                // item was a field or the block's last statement.
                '}' if depth == 0 => {
                    end = k;
                    break;
                }
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        end = k + 1;
                        break;
                    }
                }
                ';' if depth == 0 => {
                    end = k + 1;
                    break;
                }
                _ => {}
            }
        }
        rest = &item[end..];
    }
    out.push_str(rest);
    out
}

/// Names of the `pub fn` / `pub const` / `pub static` items in `code`.
fn pub_items(code: &str) -> Vec<String> {
    let mut names = Vec::new();
    for line in code.lines() {
        let mut words = line.split_whitespace().peekable();
        if words.next() != Some("pub") {
            continue;
        }
        // `const`, `unsafe`, `async` and `extern "…"` may qualify a `fn`;
        // a `const` or `static` followed by anything else is the item.
        let mut is_item = false;
        while let Some(w) = words.next() {
            match w {
                "fn" => is_item = true,
                "const" | "static" if !matches!(words.peek(), Some(&("fn" | "unsafe"))) => {
                    is_item = true
                }
                "const" | "unsafe" | "async" => continue,
                w if w.starts_with("extern") || w.starts_with('"') => continue,
                _ => {}
            }
            break;
        }
        if !is_item {
            continue;
        }
        let mut next = words.next().unwrap_or("");
        if next == "mut" {
            next = words.next().unwrap_or("");
        }
        let name: String = next
            .chars()
            .take_while(|&ch| ch.is_alphanumeric() || ch == '_')
            .collect();
        if !name.is_empty() {
            names.push(name);
        }
    }
    names
}

/// The code of the doc-test blocks (```-fenced) in `src`'s doc comments.
fn doctest_code(src: &str) -> String {
    let mut out = String::new();
    let mut in_block = false;
    for line in src.lines() {
        let t = line.trim_start();
        let Some(body) = t.strip_prefix("///").or_else(|| t.strip_prefix("//!")) else {
            in_block = false;
            continue;
        };
        if body.trim_start().starts_with("```") {
            in_block = !in_block;
        } else if in_block {
            out.push_str(body);
            out.push('\n');
        }
    }
    out
}

/// Every identifier-like word of `text`.
fn words(text: &str) -> HashSet<String> {
    text.split(|ch: char| !(ch.is_alphanumeric() || ch == '_'))
        .filter(|w| !w.is_empty())
        .map(str::to_string)
        .collect()
}

/// The library crate name from a package manifest (`-` becomes `_`).
fn lib_name(manifest: &Path) -> String {
    let text = fs::read_to_string(manifest).expect("read Cargo.toml");
    let line = text
        .lines()
        .find(|l| l.trim_start().starts_with("name"))
        .expect("package name");
    line.split('"')
        .nth(1)
        .expect("quoted package name")
        .replace('-', "_")
}

#[test]
fn every_pub_item_has_a_user_outside_its_crate() {
    let root = repo_root();
    let mut all = Vec::new();
    rust_files(&root, &mut all);
    let sources: Vec<(PathBuf, String)> = all
        .into_iter()
        .map(|p| {
            let text =
                fs::read_to_string(&p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()));
            (p, text)
        })
        .collect();
    let file_words: Vec<HashSet<String>> = sources.iter().map(|(_, t)| words(t)).collect();

    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("crates/")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.join("src").is_dir())
        .filter(|p| {
            !p.file_name()
                .and_then(|n| n.to_str())
                .unwrap_or("")
                .ends_with("-shim")
        })
        .collect();
    crate_dirs.sort();
    assert!(
        crate_dirs.len() >= 10,
        "found only {} crates under crates/",
        crate_dirs.len()
    );

    let mut unused = Vec::new();
    let mut checked = 0;
    for dir in &crate_dirs {
        let src = dir.join("src");
        let is_lib_source = |p: &Path| {
            p.starts_with(&src)
                && !p.starts_with(src.join("bin"))
                && p != src.join("main.rs").as_path()
        };
        let mut outside = HashSet::new();
        for ((path, text), w) in sources.iter().zip(&file_words) {
            if is_lib_source(path) {
                outside.extend(words(&doctest_code(text)));
            } else {
                outside.extend(w.iter().cloned());
            }
        }
        let krate = lib_name(&dir.join("Cargo.toml"));
        for (path, text) in &sources {
            let file = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if !is_lib_source(path) || SKIP_FILES.contains(&file) {
                continue;
            }
            for name in pub_items(&without_test_items(&mask(text))) {
                checked += 1;
                if !outside.contains(&name) {
                    unused.push(format!(
                        "{krate}::{name} ({})",
                        path.strip_prefix(&root).unwrap_or(path).display()
                    ));
                }
            }
        }
    }
    assert!(
        checked > 100,
        "found only {checked} pub items; is the scan broken?"
    );
    assert!(
        unused.is_empty(),
        "pub items with no user outside their crate (make them pub(crate), or delete them \
         if rustc then reports them unused):\n  {}",
        unused.join("\n  ")
    );
}

#[test]
fn the_scanner_sees_through_comments_strings_and_test_items() {
    let src = r##"
pub fn kept() {}
// pub fn in_line_comment() {}
/* pub fn in_block_comment() {} */
const S: &str = "{ pub fn in_string() {} ";
const R: &str = r#"} pub fn in_raw_string() {"#;
const C: char = '{';
fn lifetime<'a>(x: &'a str) -> &'a str { x }
pub const fn const_fn() {}
pub const LIMIT: usize = 1;
pub static mut COUNTER: usize = 0;
pub(crate) fn narrowed() {}
#[cfg(test)]
mod tests {
    pub fn in_test_module() {}
}
#[cfg(test)]
pub fn test_only() {}
pub unsafe fn after_tests() {}
"##;
    let items = pub_items(&without_test_items(&mask(src)));
    assert_eq!(
        items,
        ["kept", "const_fn", "LIMIT", "COUNTER", "after_tests"]
    );
    let doc = "/// ```\n/// let x = crate_name::used_in_doc();\n/// ```\n/// not_code()\n";
    let code = words(&doctest_code(doc));
    assert!(code.contains("used_in_doc") && !code.contains("not_code"));
}
