//! One-shot protocol client.
//!
//! ```text
//! occ_client [--retries N] [--retry-base-ms N] [--retry-seed N] <addr> <request-json>
//! occ_client 127.0.0.1:4805 '{"op":"ping"}'
//! occ_client 127.0.0.1:4805 metrics
//! ```
//!
//! Sends one request line, prints the response line, exits 0 on an
//! `"ok":true` response and 1 otherwise — scriptable from CI without
//! `nc` timing games. Transport failures and `overloaded` rejections
//! retry with seeded jittered exponential backoff (honouring the
//! server's `retry_after_ms` hint); `--retries 1` disables retrying.
//!
//! A bare op word (`ping`, `stats`, `health`, `metrics`, `shutdown`)
//! is shorthand for `{"op":"<word>"}`. The `metrics` reply is special-
//! cased: the JSON-escaped Prometheus exposition is unwrapped and
//! printed as plain text, ready to pipe into a file or a scraper.

use occ_server::{request_with_retry, Json, RetryPolicy};

fn main() {
    let mut policy = RetryPolicy::default();
    let mut positional: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--retries" => policy.attempts = parse(args.next(), "--retries"),
            "--retry-base-ms" => policy.base_ms = parse(args.next(), "--retry-base-ms"),
            "--retry-seed" => policy.seed = parse(args.next(), "--retry-seed"),
            "--help" | "-h" => {
                println!(
                    "usage: occ_client [--retries N] [--retry-base-ms N] [--retry-seed N] \
                     <addr> <request-json>"
                );
                return;
            }
            _ => positional.push(arg),
        }
    }
    let [addr, line] = positional.as_slice() else {
        eprintln!("usage: occ_client [--retries N] <addr> <request-json|op-word>");
        std::process::exit(2);
    };
    let addr = match addr.parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("occ_client: bad address '{addr}': {e}");
            std::process::exit(2);
        }
    };
    // Bare op words are shorthand for the one-field request object.
    let line = match line.as_str() {
        op @ ("ping" | "stats" | "health" | "metrics" | "shutdown") => {
            Json::obj([("op", op.into())]).to_string()
        }
        other => other.to_owned(),
    };
    match request_with_retry(addr, &line, &policy) {
        Ok(response) => {
            let parsed = Json::parse(&response).ok();
            let ok = parsed
                .as_ref()
                .and_then(|v| v.get("ok").and_then(Json::as_bool))
                .unwrap_or(false);
            // A metrics reply carries the whole exposition in one
            // escaped string — print it as plain text.
            let exposition = parsed
                .as_ref()
                .filter(|v| v.get("op").and_then(Json::as_str) == Some("metrics"))
                .and_then(|v| {
                    v.get("exposition")
                        .and_then(Json::as_str)
                        .map(str::to_owned)
                });
            match exposition {
                Some(text) => print!("{text}"),
                None => println!("{response}"),
            }
            std::process::exit(i32::from(!ok));
        }
        Err(e) => {
            eprintln!("occ_client: request failed: {e}");
            std::process::exit(1);
        }
    }
}

fn parse<T: std::str::FromStr>(value: Option<String>, flag: &str) -> T {
    value.and_then(|v| v.parse().ok()).unwrap_or_else(|| {
        eprintln!("occ_client: {flag} needs a numeric value");
        std::process::exit(2);
    })
}
