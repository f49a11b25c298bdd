#!/usr/bin/env bash
# Regression for the checked-choice CLI parses: a typo'd --shard-deletion
# mode must exit with the usage code (2) and the diagnostic must name the
# flag, list every accepted value and echo the rejected one. The removed
# engine flags must be unknown options, not silently accepted.
set -u

cli="$1"
fail() {
  echo "FAIL: $1" >&2
  echo "--- output ---" >&2
  echo "$out" >&2
  exit 1
}

out=$("$cli" @C1P1 --shard-deletion bogus 2>&1)
status=$?
[ "$status" -eq 2 ] || fail "expected exit 2 for unknown mode, got $status"
case "$out" in
  *"--shard-deletion"*) ;;
  *) fail "diagnostic does not name the flag" ;;
esac
for mode in on off; do
  case "$out" in
    *"$mode"*) ;;
    *) fail "diagnostic does not list mode '$mode'" ;;
  esac
done
case "$out" in
  *"bogus"*) ;;
  *) fail "diagnostic does not echo the rejected value" ;;
esac

# A missing value is rejected the same way, not read past argv.
out=$("$cli" @C1P1 --shard-deletion 2>&1)
status=$?
[ "$status" -eq 2 ] || fail "expected exit 2 for missing value, got $status"
case "$out" in
  *"--shard-deletion"*"<missing>"*) ;;
  *) fail "missing-value diagnostic does not name the flag" ;;
esac

# The path-search engine is not a command-line choice any more.
for args in "--path-search astar" "--lookahead map"; do
  # shellcheck disable=SC2086  # split the flag from its value on purpose
  out=$("$cli" @C1P1 $args 2>&1)
  status=$?
  [ "$status" -eq 2 ] || fail "expected exit 2 for '$args', got $status"
  case "$out" in
    *"unknown option '${args%% *}'"*) ;;
    *) fail "'$args' is not reported as an unknown option" ;;
  esac
done

echo "cli_errors: ok"
