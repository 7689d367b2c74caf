#!/bin/sh
# Smoke-tests that bad input ends in a message and an exit code, never
# a crash:
#
#   bench-flag:    a bench harness given a bad command line (the
#                  extra arguments, default --help) must exit 2 and
#                  print a message naming the last argument plus its
#                  supported flags on stderr, instead of aborting
#                  through std::terminate.
#   bad-arg:       as bench-flag, for a program with positional
#                  arguments: exit 2 and a message naming the last
#                  argument; no flag list is required.
#   serve-nesting: `amped serve --stdio` fed one line of 50,000 `[`
#                  must answer it with an error response (id null),
#                  still answer the next line, and exit 0 at EOF.
#
# Usage: smoke_bad_input.sh <binary> <work-dir>
#            <bench-flag|bad-arg|serve-nesting> [arguments...]
set -u

BINARY=$1
WORK=$2
MODE=$3
shift 3
[ "$#" -gt 0 ] || set -- --help
mkdir -p "$WORK"

fail() {
    echo "FAIL: $*" >&2
    exit 1
}

case "$MODE" in
bench-flag|bad-arg)
    for last in "$@"; do :; done
    "$BINARY" "$@" > "$WORK/stdout.txt" 2> "$WORK/stderr.txt"
    code=$?
    [ "$code" -eq 2 ] || fail "exit $code, expected 2"
    grep -qF -- "$last" "$WORK/stderr.txt" ||
        fail "no message naming $last on stderr"
    if [ "$MODE" = bench-flag ]; then
        grep -q "supported flags" "$WORK/stderr.txt" ||
            fail "no supported-flags list on stderr"
    fi
    echo "$MODE smoke ok"
    ;;
serve-nesting)
    python3 -c "print('[' * 50000)" > "$WORK/requests.txt"
    echo '{"id":2,"method":"ping"}' >> "$WORK/requests.txt"
    "$BINARY" serve --stdio < "$WORK/requests.txt" > "$WORK/responses.txt"
    code=$?
    [ "$code" -eq 0 ] || fail "exit $code, expected 0"
    head -n 1 "$WORK/responses.txt" |
        grep -q '"id":null,"status":"error".*nesting deeper than' ||
        fail "first response is not a nesting error with id null"
    sed -n 2p "$WORK/responses.txt" | grep -q '"id":2,"status":"ok"' ||
        fail "the line after the deep one was not answered"
    echo "serve-nesting smoke ok"
    ;;
*)
    echo "usage: smoke_bad_input.sh <binary> <work-dir> <bench-flag|bad-arg|serve-nesting>" >&2
    exit 2
    ;;
esac
