#!/usr/bin/env bash
# Packaging smoke test: generate and verify one support per method, format
# and arithmetic path, and check the exit codes of the refusals.  Runs in
# the current directory, which it fills with the files it writes.  The
# command is ${BCHMIN:-bchmin}: the installed entry point by default, or,
# from a checkout,
#   PYTHONPATH=src BCHMIN="python -m bchmin.cli" bash .github/packaging_smoke.sh
set -e
bchmin() { command ${BCHMIN:-bchmin} "$@"; }
bchmin generate --m 8 --i 3 --s 2 > s.json
bchmin verify s.json
bchmin table t23
# m > 16: the stabilizer search tests membership by a sorted search, not
# a 2^m-entry table, and the claim takes the affine route
bchmin generate --m 32 --i 4 --s 22 > big.json
bchmin verify big.json > big_verdict.json
grep -q '"route": "affine"' big_verdict.json
bchmin generate --m 29 --i 3 --s 23 --poly 0x20000017 > foreign.json
bchmin verify foreign.json
# the Euclid inverse and the array subspace images, under a modulus that
# is not built in
bchmin generate --m 31 --i 2 --s 27 --poly 0xC000005B > foreign31.json
bchmin verify foreign31.json
# the complement route of the subspace images on a field whose log tables
# are built on first use, under a modulus that is not built in
bchmin generate --m 24 --i 3 --s 18 --poly 0x1000087 > foreign24.json
bchmin verify foreign24.json
# the affine route applies A_V to X on a field whose log tables are built
# on first use: B has 10 vectors, and neither command builds the tables
bchmin generate --m 22 --i 2 --s 8 --format bits > m22.bits
bchmin verify m22.bits > m22_verdict.json
grep -q '"route": "affine"' m22_verdict.json
bchmin generate --m 16 --i 4 --s 0 --method gold > gold.json
bchmin verify gold.json
grep -q '"B"' gold.json
# 2i = m: X is the whole subfield zero set and the support itself, built
# as one array; its certificate takes the check route
bchmin generate --m 20 --i 10 --s 0 --method gold --format bits > gold20.bits
bchmin verify gold20.bits > gold20_verdict.json
grep -q '"route": "check"' gold20_verdict.json
bchmin generate --m 8 --i 2 --s 1 --method gk > gk.json
bchmin verify gk.json
grep -q '"B"' gk.json
bchmin generate --m 15 --i 2 --s 3 --method i2composite > composite.json
bchmin verify composite.json
bchmin generate --m 8 --i 3 --s 1 --method i3heuristic > heuristic.json
bchmin verify heuristic.json
bchmin generate --m 10 --i 2 --s 3 --format logsupport > s.log
bchmin verify s.log > s_verdict.json
bchmin generate --m 18 --i 2 --s 0 --format logsupport > multi.log
bchmin verify multi.log
# a text body of more than 2^16 entries is read in several pieces
bchmin generate --m 18 --i 2 --s 0 --format bits > pieces.bits
bchmin verify pieces.bits
# a reader that closes stdout early: no traceback on stderr (set -e
# ignores a command negated by "!", so the grep is tested by "if")
bchmin generate --m 20 --i 2 --s 0 2> pipe.err | head -c 16 > /dev/null
if grep -q Traceback pipe.err; then cat pipe.err; exit 1; fi
bchmin generate --m 16 --i 3 --s 3 > dense.json
bchmin verify dense.json > dense_verdict.json
grep -q '"route": "affine"' dense_verdict.json
bchmin generate --m 16 --i 3 --s 2 > fft.json
bchmin verify fft.json > fft_verdict.json
grep -q '"route": "affine"' fft_verdict.json
# punctured claims are decided as extended ones: the same supports,
# punctured at their least element, reach the stabilizer search too
puncture='import sys; from bchmin import cli, construct; cw = cli.parse_support_file(sys.stdin.read()); print(cli.render_logsupport(cw.ctx, construct.puncture(cw, int(cw.elems[0]))), end="")'
python -c "$puncture" < dense.json > dense_punctured.log
bchmin verify dense_punctured.log > dense_punctured_verdict.json
grep -q '"route": "affine"' dense_punctured_verdict.json
python -c "$puncture" < fft.json > fft_punctured.log
bchmin verify fft_punctured.log > fft_punctured_verdict.json
grep -q '"route": "affine"' fft_punctured_verdict.json
# the check route and its FFT product: an extended claim the cost rule
# prices below the scan and the stabilizer search
bchmin generate --m 16 --i 2 --s 1 > check.json
bchmin verify check.json > check_verdict.json
grep -q '"route": "check"' check_verdict.json
# the golden punctured supports for m = 8..16 and punctured fresh ones
bchmin table t27
bchmin generate --m 25 --i 2 --s 6 --format bits > m25.bits
bchmin verify m25.bits > m25_verdict.json
grep -q '"route": "affine"' m25_verdict.json
bchmin generate --m 16 --i 2 --s 0 > wide.json
bchmin verify wide.json
bchmin generate --m 16 --i 2 --s 0 --format bits > wide.bits
bchmin verify wide.bits
bchmin generate --m 26 --i 2 --s 18 --format logsupport > hex.log
bchmin verify hex.log
bchmin generate --m 32 --i 2 --s 28 --seed 0 > chain.json
bchmin verify chain.json
bchmin generate --m 30 --i 2 --s 24 --seed 3 --method gk > lift.json
bchmin verify lift.json
code=0; bchmin generate --m 9 --i 4 || code=$?; test "$code" = 3
code=0; bchmin generate --m 7 --i 3 --retries 0 || code=$?; test "$code" = 4
code=0; bchmin generate --m 9 --i 2 --retries -1 || code=$?; test "$code" = 5
code=0; bchmin generate --m 8 --i 2 --s 1 --method gk --retries 0 || code=$?; test "$code" = 4
code=0; bchmin generate --m x --i 2 || code=$?; test "$code" = 5
printf '{' > brace.json
code=0; bchmin verify brace.json || code=$?; test "$code" = 5
# the text grammar: CRLF line breaks are separators; a blank alone is not,
# a JSON support holds no booleans, and no entry is beyond the field
sed 's/$/\r/' s.log > crlf.log
bchmin verify crlf.log > crlf_verdict.json
cmp s_verdict.json crlf_verdict.json
printf 'm=8 poly=0x11d d=4 extended=1\n1 2\n' > gap.log
code=0; bchmin verify gap.log || code=$?; test "$code" = 5
printf '{"spec_version": 1, "m": 8, "poly": "0x11d", "d": 4, "extended": true, "support": [true, 2]}' > true.json
code=0; bchmin verify true.json || code=$?; test "$code" = 5
printf 'm=8 poly=0x11d d=4 extended=1\n0x1\n0x10000000000000000\n' > wide_hex.bits
code=0; bchmin verify wide_hex.bits || code=$?; test "$code" = 5
# the entry point: a command line that starts with a subcommand goes
# straight to its parser; help, an unknown command and extras are still
# handled by the full parser, whose messages start "bchmin:"
bchmin -h > help.txt
code=0; bchmin nosuch 2> nosuch.err || code=$?; test "$code" = 5
code=0; bchmin generate --m 8 --i 2 extra 2> extra.err || code=$?; test "$code" = 5
case "$(cat extra.err)" in "bchmin: unrecognized arguments"*) ;; *) cat extra.err; exit 1 ;; esac
