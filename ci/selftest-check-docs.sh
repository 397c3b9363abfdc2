#!/usr/bin/env sh
# Self-test for ci/check-docs.sh: pins the doc gate's contract — exit 0 on
# a clean tree (valid relative links, valid same-file and cross-file
# anchors, tag tables matching their enums), exit 1 on a broken link, a
# broken anchor, an error-code registry that drifted from the `ErrorCode`
# enum (renamed, reordered, or missing rows), or a message tag table that
# lists a variant its enum does not have, and exit 2 on a
# missing directory or a tree with no markdown. Run by the lint-ci job and
# runnable locally: sh ci/selftest-check-docs.sh
set -eu

script_dir=$(dirname "$0")
check="$script_dir/check-docs.sh"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

failures=0

# expect <name> <expected-rc> <dir>
expect() {
    rc=0
    sh "$check" "$3" >"$tmp/out" 2>&1 || rc=$?
    if [ "$rc" -ne "$2" ]; then
        echo "selftest FAIL: $1: expected exit $2, got $rc" >&2
        sed 's/^/  | /' "$tmp/out" >&2
        failures=$((failures + 1))
    else
        echo "selftest ok: $1 (exit $rc)"
    fi
}

# A minimal tree exercising every link shape the checker understands.
# write_tree <dir> <registry-name-for-tag-1>
write_tree() {
    mkdir -p "$1/docs" "$1/crates/concealer-server/src"
    cat >"$1/README.md" <<'EOF'
# Top

See [the guide](docs/guide.md), [its anchor](docs/guide.md#deep-dive),
[below](#local-section), and [the web](https://example.invalid/ok).

```sh
# not a heading, and ](not-a-link) stays ignored
```

## Local section

Done.
EOF
    cat >"$1/docs/guide.md" <<'EOF'
# Guide

Back to [the top](../README.md#top).

## Deep dive

Text.
EOF
    cat >"$1/PROTOCOL.md" <<EOF
# Spec

## Error-code registry

| tag | name | meaning |
|---|---|---|
| 0 | \`alpha\` | first |
| 1 | \`$2\` | second |

## Request messages

| tag | variant | fields |
|---|---|---|
| 0 | \`Hello\` | \`version: u32\` |
| 1 | \`Execute\` | \`id: u64\` |

## Response messages

| tag | variant | fields | replies to |
|---|---|---|---|
| 0 | \`HelloOk\` | \`ServerInfo\` | \`Hello\` |
| 1 | \`Bye\` | — | \`Goodbye\` |
EOF
    cat >"$1/crates/concealer-server/src/protocol.rs" <<'EOF'
pub enum Request {
    /// The mandatory first frame.
    Hello {
        version: u32,
    },
    #[allow(missing_docs)]
    Execute { id: u64 },
}

pub enum Response {
    HelloOk(ServerInfo),
    Bye,
}
EOF
    cat >"$1/crates/concealer-server/src/error.rs" <<'EOF'
impl ErrorCode {
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::Alpha => "alpha",
            ErrorCode::Beta => "beta",
        }
    }
}
EOF
}

# Exit 0: everything resolves, registry matches the enum.
write_tree "$tmp/clean" beta
expect "clean tree passes" 0 "$tmp/clean"

# Exit 1: a relative link to a file that does not exist.
write_tree "$tmp/badlink" beta
echo '[gone](missing/file.md)' >>"$tmp/badlink/README.md"
expect "broken link fails" 1 "$tmp/badlink"

# Exit 1: the file exists but the fragment names no heading.
write_tree "$tmp/badanchor" beta
echo '[gone](docs/guide.md#no-such-heading)' >>"$tmp/badanchor/README.md"
expect "broken cross-file anchor fails" 1 "$tmp/badanchor"

write_tree "$tmp/badlocal" beta
echo '[gone](#no-such-section)' >>"$tmp/badlocal/README.md"
expect "broken same-file anchor fails" 1 "$tmp/badlocal"

# Exit 1: the registry table says `gamma` where the enum says `beta`.
write_tree "$tmp/drift" gamma
expect "registry drift fails" 1 "$tmp/drift"

# Exit 1: the table dropped a row the enum still has.
write_tree "$tmp/short" beta
grep -v 'beta' "$tmp/short/PROTOCOL.md" >"$tmp/short/PROTOCOL.tmp"
mv "$tmp/short/PROTOCOL.tmp" "$tmp/short/PROTOCOL.md"
expect "missing registry row fails" 1 "$tmp/short"

# Exit 1: the Request table still lists a variant the enum dropped.
write_tree "$tmp/msgdrift" beta
awk '{ print } /^\| 1 \| `Execute` \|/ { print "| 2 | `ExecutePartial` | `id: u64` |" }' \
    "$tmp/msgdrift/PROTOCOL.md" >"$tmp/msgdrift/PROTOCOL.tmp"
mv "$tmp/msgdrift/PROTOCOL.tmp" "$tmp/msgdrift/PROTOCOL.md"
expect "message tag table drift fails" 1 "$tmp/msgdrift"

# Exit 2: usage errors.
expect "missing directory is a usage error" 2 "$tmp/does-not-exist"
mkdir -p "$tmp/empty"
expect "tree without markdown is a usage error" 2 "$tmp/empty"

if [ "$failures" -gt 0 ]; then
    echo "selftest: $failures failure(s)" >&2
    exit 1
fi
echo "selftest: all check-docs contract cases pass"
