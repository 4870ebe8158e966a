package bench

import (
	"fmt"
	"html/template"
	"io"
	"strings"
	"time"

	"leaserelease/internal/telemetry"
)

// This file renders the `leasebench report` output: a single self-
// contained static HTML file (inline CSS, inline SVG, no external assets)
// with the latest sweep table, per-run histogram sparklines, the lease-
// ledger top-N rankings, and cross-run trend lines from the history store.

// htmlReportData is the template input assembled by WriteHTMLReport.
type htmlReportData struct {
	Generated string
	GitSHA    string
	Current   []Report
	Latest    []HistoryEntry // newest entry per key (sweep table fallback)
	Trends    []trendData    // keys with >= 2 history entries
	History   int            // total history entries read
}

// trendData is one key's cross-run trend.
type trendData struct {
	Key     string
	Entries []HistoryEntry
	First   HistoryEntry
	Last    HistoryEntry
}

// DeltaPct is the relative throughput change last-vs-first in percent.
func (t trendData) DeltaPct() float64 {
	return deltaPct(t.First.MopsPerSec, t.Last.MopsPerSec)
}

// sparklineSVG renders a histogram's occupied log2 buckets as an inline
// SVG bar strip.
func sparklineSVG(s *telemetry.Summary) template.HTML {
	if s == nil || len(s.Buckets) == 0 {
		return ""
	}
	const barW, gap, h = 7, 2, 30
	var maxCount uint64
	for _, p := range s.Buckets {
		if p.Count > maxCount {
			maxCount = p.Count
		}
	}
	var b strings.Builder
	w := len(s.Buckets)*(barW+gap) + gap
	fmt.Fprintf(&b, `<svg class="spark" width="%d" height="%d" role="img">`, w, h+2)
	for i, p := range s.Buckets {
		bh := int(float64(h) * float64(p.Count) / float64(maxCount))
		if bh < 1 {
			bh = 1
		}
		fmt.Fprintf(&b,
			`<rect x="%d" y="%d" width="%d" height="%d"><title>&ge;%d cycles: %d</title></rect>`,
			gap+i*(barW+gap), h+1-bh, barW, bh, p.Lo, p.Count)
	}
	b.WriteString(`</svg>`)
	return template.HTML(b.String())
}

// trendSVG renders one metric's per-run values as an inline SVG polyline
// with a dot per run.
func trendSVG(entries []HistoryEntry, value func(HistoryEntry) float64) template.HTML {
	if len(entries) < 2 {
		return ""
	}
	const h = 40
	step := 36
	if len(entries) > 16 {
		step = 580 / (len(entries) - 1)
	}
	w := (len(entries)-1)*step + 12
	lo, hi := value(entries[0]), value(entries[0])
	for _, e := range entries[1:] {
		v := value(e)
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	span := hi - lo
	if span == 0 {
		span = 1
	}
	y := func(v float64) float64 { return 4 + (float64(h)-8)*(1-(v-lo)/span) }
	var pts, dots strings.Builder
	for i, e := range entries {
		x := 6 + i*step
		v := value(e)
		fmt.Fprintf(&pts, "%d,%.1f ", x, y(v))
		label := e.GitSHA
		if label == "" {
			label = time.Unix(e.TimeUnix, 0).UTC().Format("01-02 15:04")
		}
		fmt.Fprintf(&dots, `<circle cx="%d" cy="%.1f" r="2.5"><title>%s: %.3f</title></circle>`,
			x, y(v), template.HTMLEscapeString(label), v)
	}
	return template.HTML(fmt.Sprintf(
		`<svg class="trend" width="%d" height="%d" role="img"><polyline points="%s"/>%s</svg>`,
		w, h, strings.TrimSpace(pts.String()), dots.String()))
}

var htmlReportTmpl = template.Must(template.New("report").Funcs(template.FuncMap{
	"sparkline": sparklineSVG,
	"mopsTrend": func(es []HistoryEntry) template.HTML {
		return trendSVG(es, func(e HistoryEntry) float64 { return e.MopsPerSec })
	},
	"p99Trend": func(es []HistoryEntry) template.HTML {
		return trendSVG(es, func(e HistoryEntry) float64 { return float64(e.P99) })
	},
	"f1":  func(v float64) string { return fmt.Sprintf("%.1f", v) },
	"f3":  func(v float64) string { return fmt.Sprintf("%.3f", v) },
	"pct": func(v float64) string { return fmt.Sprintf("%+.1f%%", v) },
}).Parse(`<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>lease/release run report</title>
<style>
body { font: 14px/1.45 system-ui, sans-serif; margin: 2em auto; max-width: 70em; padding: 0 1em; color: #1a1a2e; }
h1 { font-size: 1.5em; } h2 { font-size: 1.15em; margin-top: 2em; border-bottom: 1px solid #ccd; padding-bottom: .2em; }
h3 { font-size: 1em; margin-bottom: .3em; }
table { border-collapse: collapse; margin: .6em 0; }
th, td { padding: .25em .7em; text-align: right; border-bottom: 1px solid #e3e3ee; font-variant-numeric: tabular-nums; }
th { background: #f2f2f8; } td:first-child, th:first-child { text-align: left; }
.meta { color: #667; } .good { color: #0a7a3c; } .bad { color: #b3262a; }
svg.spark rect { fill: #4a6fa5; } svg.trend polyline { fill: none; stroke: #4a6fa5; stroke-width: 1.5; }
svg.trend circle { fill: #1a3a6b; }
code { background: #f2f2f8; padding: 0 .25em; }
</style>
</head>
<body>
<h1>lease/release run report</h1>
<p class="meta">generated {{.Generated}}{{if .GitSHA}} at revision <code>{{.GitSHA}}</code>{{end}};
{{.History}} history entries, {{len .Trends}} trend keys.</p>

{{if .Current}}
<h2>Sweep (this run)</h2>
<table>
<tr><th>config</th><th>ops</th><th>Mops/s</th><th>nJ/op</th><th>msgs/op</th><th>miss/op</th><th>p50/p99</th><th>op-latency buckets</th></tr>
{{range .Current}}
<tr>
<td>{{.Key}}{{if .Error}} <span class="bad">FAILED</span>{{end}}</td>
<td>{{.Ops}}</td><td>{{f3 .MopsPerSec}}</td><td>{{f1 .NJPerOp}}</td>
<td>{{f3 .MsgsPerOp}}</td><td>{{f3 .MissesPerOp}}</td>
<td>{{if .OpLatency}}{{.OpLatency.P50}}/{{.OpLatency.P99}}{{else}}-{{end}}</td>
<td>{{sparkline .OpLatency}}</td>
</tr>
{{end}}
</table>

{{range .Current}}{{if .LeaseLedger}}
<h2>Lease ledger — {{.Key}}</h2>
<p>{{.LeaseLedger.Leases}} leases closed ({{.LeaseLedger.Expired}} expired, {{.LeaseLedger.OpenAtEnd}} open at end),
efficiency {{f3 .LeaseLedger.Efficiency}}, {{f1 .LeaseLedger.Amortization}} ops/lease,
{{.LeaseLedger.DeferInflictedCycles}} deferral cycles inflicted.</p>
{{if .LeaseLedger.TopWasted}}
<h3>Top lines by wasted cycles</h3>
<table>
<tr><th>line</th><th>leases</th><th>expired</th><th>granted</th><th>used</th><th>wasted</th><th>eff</th><th>ops/lease</th><th>defer-inflicted</th><th>hot score</th></tr>
{{range .LeaseLedger.TopWasted}}
<tr><td><code>{{.Line}}</code></td><td>{{.Leases}}</td><td>{{.Expired}}</td><td>{{.GrantedCycles}}</td><td>{{.UsedCycles}}</td>
<td>{{.WastedCycles}}</td><td>{{f3 .Efficiency}}</td><td>{{f1 .Amortization}}</td><td>{{.DeferInflictedCycles}}</td><td>{{.HotScore}}</td></tr>
{{end}}
</table>
{{end}}
{{if .LeaseLedger.TopDeferInflicted}}
<h3>Top lines by deferral inflicted</h3>
<table>
<tr><th>line</th><th>deferred txns</th><th>defer-inflicted</th><th>leases</th><th>eff</th><th>ops/lease</th><th>hot score</th></tr>
{{range .LeaseLedger.TopDeferInflicted}}
<tr><td><code>{{.Line}}</code></td><td>{{.DeferredTxns}}</td><td>{{.DeferInflictedCycles}}</td><td>{{.Leases}}</td>
<td>{{f3 .Efficiency}}</td><td>{{f1 .Amortization}}</td><td>{{.HotScore}}</td></tr>
{{end}}
</table>
{{end}}
{{end}}{{end}}
{{else if .Latest}}
<h2>Latest recorded runs</h2>
<table>
<tr><th>config</th><th>git</th><th>ops</th><th>Mops/s</th><th>msgs/op</th><th>p50/p99</th><th>lease eff</th></tr>
{{range .Latest}}
<tr><td>{{.Key}}</td><td><code>{{.GitSHA}}</code></td><td>{{.Ops}}</td><td>{{f3 .MopsPerSec}}</td>
<td>{{f3 .MsgsPerOp}}</td><td>{{.P50}}/{{.P99}}</td><td>{{f3 .LeaseEfficiency}}</td></tr>
{{end}}
</table>
{{end}}

<h2>Cross-run trends</h2>
{{if .Trends}}
<table>
<tr><th>config</th><th>runs</th><th>Mops/s (first&rarr;last)</th><th>&Delta;</th><th>Mops/s trend</th><th>p99 trend</th></tr>
{{range .Trends}}
<tr>
<td>{{.Key}}</td><td>{{len .Entries}}</td>
<td>{{f3 .First.MopsPerSec}} &rarr; {{f3 .Last.MopsPerSec}}</td>
<td class="{{if ge .DeltaPct 0.0}}good{{else}}bad{{end}}">{{pct .DeltaPct}}</td>
<td>{{mopsTrend .Entries}}</td>
<td>{{p99Trend .Entries}}</td>
</tr>
{{end}}
</table>
{{else}}
<p class="meta">Fewer than two recorded runs per configuration — run
<code>leasebench history</code> after sweeps to accumulate trend data.</p>
{{end}}
</body>
</html>
`))

// WriteHTMLReport renders the self-contained HTML report: the given
// current-run reports (sweep table, sparklines, ledger rankings) plus
// cross-run trends for every history key with at least two entries.
func WriteHTMLReport(w io.Writer, current []Report, history []HistoryEntry, sha string, now time.Time) error {
	keys, byKey := GroupHistory(history)
	data := htmlReportData{
		Generated: now.UTC().Format("2006-01-02 15:04:05 UTC"),
		GitSHA:    sha,
		Current:   current,
		History:   len(history),
	}
	for _, k := range keys {
		es := byKey[k]
		data.Latest = append(data.Latest, es[len(es)-1])
		if len(es) >= 2 {
			data.Trends = append(data.Trends, trendData{
				Key: k, Entries: es, First: es[0], Last: es[len(es)-1],
			})
		}
	}
	return htmlReportTmpl.Execute(w, data)
}
