#!/usr/bin/env bash
# go test, for steps that select tests by name: `go test -run PATTERN`
# passes when PATTERN matches nothing, so a renamed test silently leaves
# its lane. This wrapper first requires every '|' alternative of the -run
# pattern (or of the -fuzz pattern, when -run is '^$') to match at least
# one test in the packages given, then runs go test with the same
# arguments.
# Usage: run-matched.sh [go test flags] -run PATTERN [flags] ./pkg...
set -euo pipefail
pattern="" fuzz="" pkgs=()
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
  case "${args[i]}" in
    -run) pattern="${args[i + 1]}" ;;
    -fuzz) fuzz="${args[i + 1]}" ;;
    ./* | .) pkgs+=("${args[i]}") ;;
  esac
done
if [ "$pattern" = '^$' ]; then pattern="$fuzz"; fi
if [ -z "$pattern" ] || [ "${#pkgs[@]}" -eq 0 ]; then
  echo "run-matched: need -run PATTERN and at least one package" >&2
  exit 2
fi
IFS='|' read -ra alts <<<"$pattern"
for alt in "${alts[@]}"; do
  listed="$(go test -list "$alt" "${pkgs[@]}")"
  if ! grep -Eq '^(Test|Fuzz|Example|Benchmark)' <<<"$listed"; then
    echo "run-matched: '$alt' matches no test in ${pkgs[*]} — renamed or deleted?" >&2
    exit 1
  fi
done
exec go test "$@"
