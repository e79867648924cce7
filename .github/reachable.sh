#!/usr/bin/env bash
# Reachable: every func declared in non-test Go outside benchmark/ is either
# reached by a binary or named in the allowlist (.github/reachable.allow).
#
# "Reached" means the function's symbol survives the linker in at least one
# main package (cmd/*, examples/*, internal/metrics/promlint, benchmark/)
# built with -gcflags=all=-l: without inlining, a function the linker keeps
# is one something calls, takes the address of or may call through an
# interface. Declarations are the lines of `git ls-files` matching ^func
# (gofmt puts every top-level func there), so no go/parser is needed.
#
# Exit 1 when an unreached function is not on the allowlist, or when an
# allowlist entry matches no unreached function (it is reached now, or gone).
#
#   bash .github/reachable.sh            # check
#   bash .github/reachable.sh -list      # every unreached function, with its lines
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"
allow=.github/reachable.allow
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mod=$(go list -m)

# symbols <binary> <import path of its main package>: the binary's text
# symbols, main.* renamed to the package's path, type arguments dropped.
symbols() {
	go tool nm "$1" | sed -E 's/^ *[0-9a-f]* +[Tt] //;t;d' | sed "s#^main\.#$2.#" | awk '{
		out = ""; depth = 0
		for (i = 1; i <= length($0); i++) {
			c = substr($0, i, 1)
			if (c == "[") depth++
			else if (c == "]") depth--
			else if (depth == 0) out = out c
		}
		print out
	}'
}

for pkg in $(go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...); do
	go build -gcflags=all=-l -o "$tmp/bin" "$pkg"
	symbols "$tmp/bin" "$pkg"
done >"$tmp/syms"
(cd benchmark && go build -gcflags=all=-l -o "$tmp/bin" .)
symbols "$tmp/bin" "$mod/benchmark" >>"$tmp/syms"
sort -u -o "$tmp/syms" "$tmp/syms"

# Declarations: "<symbol> <file>:<line> <lines>", symbol as nm prints it
# without type arguments: pkg.F, pkg.T.M or pkg.(*T).M.
git ls-files '*.go' | grep -v '_test\.go$' | grep -v '^benchmark/' | grep -v '/testdata/' |
	xargs awk -v mod="$mod" '
	FNR == 1 { dir = FILENAME; sub(/\/?[^\/]*$/, "", dir); pkg = dir == "" ? mod : mod "/" dir }
	open && /^}/ { print decl, FILENAME ":" start, FNR - start + 1; open = 0 }
	/^func / {
		s = substr($0, 6); recv = ""
		if (s ~ /^\(/) {
			recv = substr(s, 2, index(s, ")") - 2); s = substr(s, index(s, ")") + 2)
			sub(/\[.*/, "", recv); n = split(recv, f, " "); recv = f[n]
			recv = recv ~ /^\*/ ? "(" recv ")." : recv "."
		}
		match(s, /^[A-Za-z0-9_]+/); name = substr(s, 1, RLENGTH)
		if (name == "init" && recv == "") next
		decl = pkg "." recv name; start = FNR
		if ($0 ~ /}$/) print decl, FILENAME ":" FNR, 1; else open = 1
	}' >"$tmp/decls"

# Unreached: declared, no symbol.
awk 'NR == FNR { sym[$1] = 1; next } !($1 in sym)' "$tmp/syms" "$tmp/decls" >"$tmp/unreached"

if [ "${1:-}" = "-list" ]; then
	cat "$tmp/unreached"
	awk '{ n++; l += $3 } END { printf "%d functions, %d lines reach no binary\n", n, l }' "$tmp/unreached"
	exit 0
fi

# Allowlist entries: "<entry>  # reason", the reason required. An entry is
# a package (import path), a file (path ending .go) or a function (a
# symbol as above).
awk -v allow="$allow" -v decls="$tmp/decls" '
	# keys: the entries a declaration falls under (function, file, package).
	function keys(sym, loc,    file, pkg) {
		file = loc; sub(/:.*/, "", file)
		pkg = sym; sub(/\.[^\/]*$/, "", pkg)
		k[1] = sym; k[2] = file; k[3] = pkg
	}
	FILENAME == allow {
		reason = $0; sub(/^[^#]*#?/, "", reason); sub(/#.*/, ""); if (NF == 0) next
		if (reason !~ /[^ ]/) { print allow ": " $1 " gives no reason"; bad = 1 }
		if ($1 in entry) { print allow ": " $1 " listed twice"; bad = 1 }
		entry[$1] = 0; order[++n] = $1; next
	}
	FILENAME == decls {
		keys($1, $2)
		for (i = 1; i <= 3; i++) declared[k[i]] = 1
		next
	}
	{
		keys($1, $2); hit = 0
		for (i = 1; i <= 3; i++) if (k[i] in entry) { entry[k[i]]++; hit = 1 }
		if (!hit) { print "unreached and not allowlisted: " $1 " (" $2 ", " $3 " lines)"; bad = 1 }
	}
	END {
		for (i = 1; i <= n; i++) if (entry[order[i]] == 0) {
			print allow ": " order[i] (order[i] in declared ? " is reached by a binary now" : " is no longer declared"); bad = 1
		}
		exit bad
	}' "$allow" "$tmp/decls" "$tmp/unreached"
