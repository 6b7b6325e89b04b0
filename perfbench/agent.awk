# External agent for the benchmark's external-agents workload.
#
# Speaks the tradecontest line protocol: reads one JSON request line on
# stdin (keys sorted, as the engine writes them) and prints one response
# line. It is an awk program so that each call costs a process spawn and
# little else; the benchmark then measures the engine's adapter, not an
# interpreter's start-up.
#
# Data requests: rate the symbols that moved most over the request's bar
# window. Research requests: buy the symbol with the highest net rating in
# the factor-portfolio text. The trailing digit of the agent id varies the
# behaviour, so the contest has different agents to choose between:
#   data agent n    starts at mover rank n % 4, makes 2 + n % 2
#                   observations, and fades the move when n % 3 == 2;
#   research agent n buys the lowest net rating instead when n is odd.

function field(s, key,    r) {
    if (!match(s, "\"" key "\": \"[^\"]*\"")) return ""
    r = substr(s, RSTART + length(key) + 5, RLENGTH - length(key) - 6)
    return r
}

function absval(x) { return x < 0 ? -x : x }

function data_response(    bars, pieces, np, i, sym, px, nsym, order, first, last,
                           used, k, j, best, bm, b, m, rating, dir, text, obs, chars, nobs) {
    if (!match(line, /"bars": \[.*\], "date": "/)) return ""
    bars = substr(line, RSTART + 10, RLENGTH - 22)
    np = split(bars, pieces, /\}, \{/)
    nsym = 0
    for (i = 1; i <= np; i++) {
        if (!match(pieces[i], /"close": [-+0-9.eE]+/)) continue
        px = substr(pieces[i], RSTART + 9, RLENGTH - 9) + 0
        if (!match(pieces[i], /"symbol": "[^"]*"/)) continue
        sym = substr(pieces[i], RSTART + 11, RLENGTH - 12)
        if (!(sym in first)) { first[sym] = px; order[++nsym] = sym }
        last[sym] = px
    }
    k = 2 + n % 2
    dir = (n % 3 == 2) ? -1 : 1
    obs = ""; chars = 0; nobs = 0
    # pick movers by |move| rank, ties by symbol name, skipping n % 4 ranks
    for (j = 0; j < n % 4 + k && j < nsym; j++) {
        best = ""
        for (i = 1; i <= nsym; i++) {
            b = order[i]
            if (b in used) continue
            m = last[b] / first[b] - 1
            if (best == "" || absval(m) > absval(bm) || (absval(m) == absval(bm) && b < best)) {
                best = b; bm = m
            }
        }
        used[best] = 1
        if (j < n % 4) continue
        rating = (bm > 0 ? 1 : (bm < 0 ? -1 : 0)) * dir * (absval(bm) > 0.03 ? 2 : 1)
        text = sprintf("%s moved %+.4f over the window; stance %+d.", best, bm, rating)
        chars += length(text)
        obs = obs (nobs++ ? ", " : "") "{\"rated_symbols\": [[\"" best "\", " rating "]], \"text\": \"" text "\"}"
    }
    return "{\"agent_id\": \"" id "\", \"date\": \"" day "\", \"observations\": [" obs \
           "], \"token_length\": " int((chars + 3) / 4) "}"
}

function research_response(    text, tag, parts, net, nsym, order, i, best, s) {
    text = line
    sub(/.*"factor_portfolio": /, "", text)
    nsym = 0
    while (match(text, /\[[A-Za-z0-9_.]+:[-+][0-9]\]/)) {
        tag = substr(text, RSTART + 1, RLENGTH - 2)
        text = substr(text, RSTART + RLENGTH)
        split(tag, parts, ":")
        if (!(parts[1] in net)) order[++nsym] = parts[1]
        net[parts[1]] += parts[2] + 0
    }
    if (nsym == 0)
        return "{\"action\": \"hold\", \"agent_id\": \"" id "\", \"date\": \"" day \
               "\", \"evidence\": [], \"limitation\": \"portfolio names no symbol\", \"symbol\": \"CASH\"}"
    best = ""
    for (i = 1; i <= nsym; i++) {
        s = order[i]
        if (best == "" || (n % 2 ? net[s] < net[best] : net[s] > net[best]) \
            || (net[s] == net[best] && s < best))
            best = s
    }
    return "{\"action\": \"buy\", \"agent_id\": \"" id "\", \"date\": \"" day \
           "\", \"evidence\": [\"net portfolio rating " net[best] " on " best "\"], " \
           "\"limitation\": \"reads ratings only\", \"symbol\": \"" best "\"}"
}

NR == 1 {
    line = $0
    id = field(line, "agent_id")
    n = substr(id, length(id), 1) + 0
    if (!match(line, /\], "date": "[0-9-]+"/)) exit 3
    day = substr(line, RSTART + 12, RLENGTH - 13)
    if (field(line, "kind") == "data") print data_response()
    else print research_response()
    exit 0
}
