//! Output checks that do not trust the compiler under test.
//!
//! A `/compile` answer is checked by running the returned source and the
//! original through the interpreter on the same seeded store and
//! comparing final-store digests. The seed differs from lc-driver's own
//! validation seed, so a check that merely repeats lc-driver's
//! validation cannot pass by construction. An `/analyze` answer is
//! compared with the linter run in-process.

use lc_driver::json::Json;
use lc_driver::pipeline::VALIDATE_SEED;
use lc_driver::trace::finding_to_json;
use lc_ir::interp::Interp;
use lc_ir::parser::parse_program;
use lc_lint::{LintSet, Severity};
use lc_xform::validate::seeded_store;

/// Seed of the stores the checks run on.
pub const CHECK_SEED: u64 = 0x5EED_C4EC;

const _: () = assert!(CHECK_SEED != VALIDATE_SEED);

/// What the output check needs of an answer: for a `/compile` body of
/// the usual shape (`{"ok":true,"source":"…",…`), just the JSON string of
/// its `source` field, since the rest is the pipeline trace; otherwise
/// the whole body. Keeping only this holds the benchmark's own memory
/// small and independent of the trace's size.
pub fn essential(compile: bool, mut body: Vec<u8>) -> Vec<u8> {
    const PREFIX: &[u8] = b"{\"ok\":true,\"source\":\"";
    if !compile || !body.starts_with(PREFIX) {
        return body;
    }
    let start = PREFIX.len() - 1;
    let mut escaped = false;
    for i in start + 1..body.len() {
        match body[i] {
            b'\\' if !escaped => escaped = true,
            b'"' if !escaped => {
                body.truncate(i + 1);
                body.drain(..start);
                return body;
            }
            _ => escaped = false,
        }
    }
    body
}

/// The returned source in what [`essential`] kept of a `/compile` body.
pub fn returned_source(kept: &[u8]) -> Result<String, String> {
    let text = std::str::from_utf8(kept).map_err(|e| format!("body is not UTF-8: {e}"))?;
    match Json::parse(text).map_err(|e| format!("body is not JSON: {e}"))? {
        Json::Str(source) => Ok(source),
        json => json.str_field("source").map(str::to_string),
    }
}

/// Final-store digest of `src` run from the seeded store of
/// `store_of`'s declarations.
fn digest_on(src: &str, store_of: &lc_ir::program::Program) -> Result<u64, String> {
    let prog = parse_program(src).map_err(|e| format!("does not parse: {e}"))?;
    let (store, _) = Interp::new()
        .run_on(&prog, seeded_store(store_of, CHECK_SEED))
        .map_err(|e| format!("does not run: {e}"))?;
    Ok(store.digest())
}

/// Check that `returned` (the compiled source) computes what `original`
/// computes.
pub fn check_compiled(original: &str, returned: &str) -> Result<(), String> {
    let prog = parse_program(original).map_err(|e| format!("original does not parse: {e}"))?;
    let want = digest_on(original, &prog)?;
    let got = digest_on(returned, &prog).map_err(|e| format!("returned source {e}"))?;
    if want == got {
        Ok(())
    } else {
        Err(format!(
            "returned source diverges: digest {got:#x}, original {want:#x}"
        ))
    }
}

/// Check an `/analyze` answer against the linter run in-process with the
/// server's lint levels (the defaults).
pub fn check_analyze(original: &str, body: &[u8]) -> Result<(), String> {
    let want = lc_lint::lint_source(original, &LintSet::default())
        .map_err(|e| format!("original does not lint: {e}"))?;
    let text = std::str::from_utf8(body).map_err(|e| format!("body is not UTF-8: {e}"))?;
    let json = Json::parse(text).map_err(|e| format!("body is not JSON: {e}"))?;
    let findings = json
        .get("findings")
        .and_then(Json::as_arr)
        .ok_or("no findings array")?;
    let expected: Vec<Json> = want.iter().map(finding_to_json).collect();
    if findings != expected.as_slice() {
        return Err(format!(
            "findings differ: got {}, want {}",
            findings.len(),
            expected.len()
        ));
    }
    let denied = want.iter().filter(|f| f.severity == Severity::Deny).count() as i64;
    if json.int_field("denied")? != denied {
        return Err("denied count differs".to_string());
    }
    Ok(())
}
