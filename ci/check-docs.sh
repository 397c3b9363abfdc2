#!/usr/bin/env sh
# Offline documentation checker, run by the lint-ci job.
#
# Three gates over the repository's markdown:
#
#  1. Link check — every relative link target in every tracked *.md file
#     must exist, and every `#fragment` (same-file or cross-file into a
#     .md) must match a heading's GitHub-style anchor slug. External
#     (http/https/mailto) links are skipped: CI runs offline, and dead
#     external links are not this gate's job. Fenced code blocks are
#     ignored for both headings and links.
#
#  2. Protocol drift guard — three tag tables in PROTOCOL.md must list
#     exactly the variants of the enum that defines them: the error-code
#     registry those of `ErrorCode` in crates/concealer-server/src/error.rs
#     (the `name()` match arms, which the compiler keeps exhaustive and in
#     declaration order), and the "Request messages" / "Response
#     messages" tables those of `enum Request` / `enum Response` in
#     crates/concealer-server/src/protocol.rs. Same names, same order,
#     tags numbered 0..N-1 — so the spec cannot silently fall behind the
#     enums that define the wire format.
#
#  3. Attestation drift guard — the constants the attestation docs quote
#     must match the source of truth: every PROTOCOL.md / OPERATIONS.md
#     mention of `DEFAULT_MAX_QUOTE_AGE_SECS` must carry the value from
#     crates/concealer-client/src/lib.rs, and PROTOCOL.md must quote the
#     measurement domain string from
#     crates/concealer-enclave/src/attest.rs verbatim.
#
# Exit codes: 0 all checks pass, 1 broken link / anchor / drift,
# 2 usage error (missing directory or no markdown files).
#
# Usage: check-docs.sh [DIR]   (default: the repository root)
set -eu

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
if [ ! -d "$root" ]; then
    echo "check-docs: no such directory: $root" >&2
    exit 2
fi

# Tracked markdown when DIR is a git checkout; every .md otherwise (the
# self-test runs against synthetic non-git trees).
if git -C "$root" rev-parse --is-inside-work-tree >/dev/null 2>&1; then
    files=$(git -C "$root" ls-files '*.md')
else
    files=$(cd "$root" && find . -name '*.md' | sed 's|^\./||' | sort)
fi
if [ -z "$files" ]; then
    echo "check-docs: no markdown files under $root" >&2
    exit 2
fi

failures=0
fail() {
    echo "check-docs: $1" >&2
    failures=$((failures + 1))
}

# GitHub-style anchor slugs for every heading in a file: lowercase, drop
# everything but alphanumerics/spaces/hyphens/underscores, spaces to
# hyphens. Headings inside ``` fences are not headings.
slugs_of() {
    awk '
        /^(```|~~~)/ { fence = !fence; next }
        fence { next }
        /^#+ / {
            s = $0
            sub(/^#+ +/, "", s)
            s = tolower(s)
            gsub(/`/, "", s)
            gsub(/[^a-z0-9 _-]/, "", s)
            gsub(/ /, "-", s)
            print s
        }
    ' "$root/$1"
}

# Inline link targets `](...)` outside code fences, one per line.
links_of() {
    awk '
        /^(```|~~~)/ { fence = !fence; next }
        fence { next }
        {
            line = $0
            while (match(line, /\]\([^)]+\)/)) {
                print substr(line, RSTART + 2, RLENGTH - 3)
                line = substr(line, RSTART + RLENGTH)
            }
        }
    ' "$root/$1"
}

for file in $files; do
    dir=$(dirname "$file")
    for target in $(links_of "$file"); do
        case $target in
        http://* | https://* | mailto:*) continue ;;
        esac
        frag=""
        path=$target
        case $target in
        *#*)
            frag=${target#*#}
            path=${target%%#*}
            ;;
        esac
        if [ -n "$path" ]; then
            anchored="$dir/$path"
            if [ ! -e "$root/$anchored" ]; then
                fail "$file: broken link: $target"
                continue
            fi
        else
            anchored="$file"
        fi
        # Fragment checks only make sense into markdown (same file, or a
        # .md target); other targets with fragments are passed through.
        if [ -n "$frag" ]; then
            case $anchored in
            *.md)
                if ! slugs_of "$anchored" | grep -qx "$frag"; then
                    fail "$file: broken anchor: $target"
                fi
                ;;
            esac
        fi
    done
done

# --- drift guard -----------------------------------------------------------

spec="$root/PROTOCOL.md"
enum="$root/crates/concealer-server/src/error.rs"
proto="$root/crates/concealer-server/src/protocol.rs"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

# Rows "| <tag> | `<name>` | ..." of one "## <section>" of PROTOCOL.md, as
# "tag name" lines (every tag table is numbered, so the section decides).
table_rows() {
    awk -v sec="## $1" '
        index($0, sec) == 1 { insec = 1; next }
        insec && /^## / { insec = 0 }
        insec && /^\| *[0-9]+ *\| *`[A-Za-z_]+`/ {
            split($0, parts, "|")
            tag = parts[2]; name = parts[3]
            gsub(/[ `]/, "", tag); gsub(/[ `]/, "", name)
            print tag, name
        }
    ' "$spec"
}

# same_as_source <section> <what>: the section's table must equal the
# "tag name" lines in $tmp/code, the source's declaration order.
same_as_source() {
    table_rows "$1" >"$tmp/table"
    if [ ! -s "$tmp/code" ]; then
        fail "drift guard: no $2 found in the source"
    elif ! diff -u "$tmp/code" "$tmp/table" >"$tmp/diff" 2>&1; then
        fail "PROTOCOL.md \"$1\" drifted from $2 (expected vs table):"
        cat "$tmp/diff" >&2
    fi
}

if [ -f "$spec" ] && [ -f "$enum" ]; then
    # The enum, via its name() arms (exhaustive, declaration order).
    sed -n 's/^ *ErrorCode::[A-Za-z]* => "\([a-z_]*\)".*/\1/p' "$enum" |
        awk '{ print NR - 1, $1 }' >"$tmp/code"
    same_as_source "Error-code registry" "ErrorCode::name() arms"
fi
if [ -f "$spec" ] && [ -f "$proto" ]; then
    # The message enums: their variants are the four-space-indented
    # capitalised names of `pub enum <name> {`, tagged by declaration index.
    for message in Request Response; do
        awk -v e="$message" '
            $0 == "pub enum " e " {" { inenum = 1; next }
            inenum && /^}/ { exit }
            inenum && match($0, /^    [A-Z][A-Za-z0-9]*/) {
                print n + 0, substr($0, 5, RLENGTH - 4)
                n++
            }
        ' "$proto" >"$tmp/code"
        same_as_source "$message messages" "enum $message"
    done
fi

# --- attestation drift guard -----------------------------------------------

client="$root/crates/concealer-client/src/lib.rs"
attest_src="$root/crates/concealer-enclave/src/attest.rs"
if [ -f "$spec" ] && [ -f "$client" ]; then
    src_age=$(sed -n 's/^pub const DEFAULT_MAX_QUOTE_AGE_SECS: u64 = \([0-9][0-9]*\);.*/\1/p' "$client")
    if [ -z "$src_age" ]; then
        fail "drift guard: DEFAULT_MAX_QUOTE_AGE_SECS not found in $client"
    else
        for doc in PROTOCOL.md OPERATIONS.md; do
            [ -f "$root/$doc" ] || continue
            if ! grep -q 'DEFAULT_MAX_QUOTE_AGE_SECS' "$root/$doc"; then
                fail "$doc: never states the default quote-age bound (DEFAULT_MAX_QUOTE_AGE_SECS)"
            elif grep 'DEFAULT_MAX_QUOTE_AGE_SECS' "$root/$doc" |
                grep -Eqv "DEFAULT_MAX_QUOTE_AGE_SECS[^0-9]*${src_age}([^0-9]|\$)"; then
                fail "$doc: quote-age bound drifted from DEFAULT_MAX_QUOTE_AGE_SECS = $src_age"
            fi
        done
    fi
fi
if [ -f "$spec" ] && [ -f "$attest_src" ]; then
    domain=$(sed -n 's/^pub const MEASUREMENT_DOMAIN: &str = "\([^"]*\)";.*/\1/p' "$attest_src")
    if [ -z "$domain" ]; then
        fail "drift guard: MEASUREMENT_DOMAIN not found in $attest_src"
    elif ! grep -qF "$domain" "$spec"; then
        fail "PROTOCOL.md: never quotes the measurement domain string ($domain)"
    fi
fi

if [ "$failures" -gt 0 ]; then
    echo "check-docs: $failures failure(s)" >&2
    exit 1
fi
echo "check-docs ok: $(echo "$files" | wc -l | tr -d ' ') markdown file(s) checked"
exit 0
