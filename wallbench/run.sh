#!/usr/bin/env bash
# Build the benchmark from source (into $CARGO_TARGET_DIR when the
# driver sets it) and run it with the given arguments. Cargo's own
# output goes to stderr so stdout ends with the result object.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/bench" "$@"
