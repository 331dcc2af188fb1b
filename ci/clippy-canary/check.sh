#!/usr/bin/env bash
# Runs clippy on the canary crate next to this script and fails unless every
# ban of the root `clippy.toml` is reported. Clippy finds that file by
# searching parent directories. Run from anywhere: ci/clippy-canary/check.sh
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
out="$(cargo clippy --locked --manifest-path "$here/Cargo.toml" \
    --target-dir "$here/../../target/clippy-canary" 2>&1)"
missing=0
for ban in \
    'disallowed method `std::time::Instant::now`' \
    'disallowed method `std::time::SystemTime::now`' \
    'disallowed method `core::cmp::PartialOrd::partial_cmp`' \
    'disallowed type `std::hash::RandomState`' \
    'disallowed type `std::collections::HashMap`' \
    'disallowed type `std::collections::HashSet`'; do
    if ! grep -qF "$ban" <<<"$out"; then
        echo "::error::clippy.toml ban did not fire: use of a $ban"
        missing=1
    fi
done
if [ "$missing" -ne 0 ]; then
    echo "$out"
    exit 1
fi
echo "every clippy.toml ban fired on the canary"
