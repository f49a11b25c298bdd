#!/usr/bin/env bash
# Regression for the checked CLI parses: a typo'd --log-format value must
# exit with the usage code (2) and the diagnostic must name the flag, list
# every accepted value and echo the rejected one. A flag whose value is
# missing must name itself and report '<missing>'. The removed engine and
# speed flags must be unknown options, not silently accepted. Every flag
# the source's header comment documents must appear in --help.
#
#   run_cli_errors.sh <bgr_route binary> <tools/bgr_route.cpp>
set -u

cli="$1"
source_file="$2"
fail() {
  echo "FAIL: $1" >&2
  echo "--- output ---" >&2
  echo "$out" >&2
  exit 1
}

out=$("$cli" @C1P1 --log-format bogus 2>&1)
status=$?
[ "$status" -eq 2 ] || fail "expected exit 2 for unknown format, got $status"
case "$out" in
  *"--log-format"*) ;;
  *) fail "diagnostic does not name the flag" ;;
esac
for format in text json; do
  case "$out" in
    *"$format"*) ;;
    *) fail "diagnostic does not list format '$format'" ;;
  esac
done
case "$out" in
  *"bogus"*) ;;
  *) fail "diagnostic does not echo the rejected value" ;;
esac

# A missing value is rejected the same way, not read past argv — for a
# choice flag and for a file flag alike.
for flag in --log-format --metrics-out; do
  out=$("$cli" @C1P1 "$flag" 2>&1)
  status=$?
  [ "$status" -eq 2 ] || fail "expected exit 2 for missing $flag value, got $status"
  case "$out" in
    *"$flag"*"<missing>"*) ;;
    *) fail "missing-value diagnostic does not name $flag" ;;
  esac
done

# The path-search engine, the STA update style and the deletion sharding
# are not command-line choices any more.
for args in "--path-search astar" "--lookahead map" "--incremental-sta off" \
            "--shard-deletion off"; do
  # shellcheck disable=SC2086  # split the flag from its value on purpose
  out=$("$cli" @C1P1 $args 2>&1)
  status=$?
  [ "$status" -eq 2 ] || fail "expected exit 2 for '$args', got $status"
  case "$out" in
    *"unknown option '${args%% *}'"*) ;;
    *) fail "'$args' is not reported as an unknown option" ;;
  esac
done

# --help lists every flag of the header comment (the leading // block).
out=$("$cli" --help 2>&1)
status=$?
[ "$status" -eq 0 ] || fail "expected exit 0 for --help, got $status"
flags=$(sed -n '/^\/\//!q;p' "$source_file" | grep -o -- '--[a-z][a-z-]*' |
        sort -u)
[ -n "$flags" ] || fail "no flags found in the header comment of $source_file"
for flag in $flags; do
  case "$out" in
    *"[$flag]"* | *"[$flag "*) ;;
    *) fail "--help does not list $flag" ;;
  esac
done

echo "cli_errors: ok"
