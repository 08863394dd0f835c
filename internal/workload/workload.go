// Package workload generates the evaluation query workload of the paper's
// §VII-A: 20 manually designed templates per dataset, each instantiated
// with sampled literals and rendered in one of several equivalent
// natural-language variants, with ground truth computed from the corpus's
// hidden structured records (the paper computes ground truths manually —
// the hidden record is this reproduction's "manual" label).
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"unify/internal/corpus"
	"unify/internal/lexicon"
)

// Kind classifies an expected answer.
type Kind string

// Answer kinds.
const (
	Num    Kind = "num"    // numeric, tolerance-scored
	Label  Kind = "label"  // one categorical label (tie set accepted)
	Labels Kind = "labels" // a set of labels
	Title  Kind = "title"  // a document title
	Titles Kind = "titles" // a set of document titles
	Choice Kind = "choice" // "first" or "second"
)

// Truth is the expected answer of a query.
type Truth struct {
	Kind Kind
	Num  float64
	// Accept lists acceptable exact answers (labels in a tie, the single
	// title, the choice). For Labels/Titles it is the expected set.
	Accept []string
}

// Query is one workload instance.
type Query struct {
	ID       string
	Template int // 1..20
	Text     string
	Truth    Truth
	// Conditions lists the semantic filter conditions the query contains
	// (the SCE evaluation of Table III runs on these).
	Conditions []string
	// USQL is the typed-dialect twin of Text for templates the USQL
	// grammar can express ("" otherwise). Both forms must produce
	// byte-identical answers — the usql_vs_nl differential axis runs on
	// these pairs.
	USQL string
}

// Generate builds perTemplate instances of each of the 20 templates for
// the dataset (the paper uses 5 per template = 100 queries).
func Generate(ds *corpus.Dataset, perTemplate int, seed int64) []Query {
	if perTemplate <= 0 {
		perTemplate = 5
	}
	g := &gen{ds: ds, rng: rand.New(rand.NewSource(seed))}
	var out []Query
	for tpl := 1; tpl <= 20; tpl++ {
		for i := 0; i < perTemplate; i++ {
			q, ok := g.instantiate(tpl, i)
			if ok {
				out = append(out, q)
			}
		}
	}
	return out
}

type gen struct {
	ds  *corpus.Dataset
	rng *rand.Rand
}

// --- hidden-record predicates ---

func (g *gen) catPred(c string) func(h corpus.Hidden) bool {
	return func(h corpus.Hidden) bool { return h.Category == c }
}

func (g *gen) aspPred(a string) func(h corpus.Hidden) bool {
	return func(h corpus.Hidden) bool { return h.Aspect == a }
}

func all(preds ...func(h corpus.Hidden) bool) func(h corpus.Hidden) bool {
	return func(h corpus.Hidden) bool {
		for _, p := range preds {
			if !p(h) {
				return false
			}
		}
		return true
	}
}

func (g *gen) docsWhere(pred func(h corpus.Hidden) bool) []corpus.Doc {
	var out []corpus.Doc
	for _, d := range g.ds.Docs {
		if pred(d.Hidden) {
			out = append(out, d)
		}
	}
	return out
}

func (g *gen) count(pred func(h corpus.Hidden) bool) int {
	return len(g.docsWhere(pred))
}

func fieldVals(docs []corpus.Doc, field string) []float64 {
	out := make([]float64, 0, len(docs))
	for _, d := range docs {
		switch field {
		case "views":
			out = append(out, float64(d.Hidden.Views))
		case "score":
			out = append(out, float64(d.Hidden.Score))
		}
	}
	return out
}

func aggVals(kind string, vals []float64, p int) float64 {
	if len(vals) == 0 {
		return 0
	}
	switch kind {
	case "sum":
		t := 0.0
		for _, v := range vals {
			t += v
		}
		return t
	case "avg":
		t := 0.0
		for _, v := range vals {
			t += v
		}
		return t / float64(len(vals))
	case "max":
		m := vals[0]
		for _, v := range vals {
			if v > m {
				m = v
			}
		}
		return m
	case "median":
		s := append([]float64(nil), vals...)
		sort.Float64s(s)
		mid := len(s) / 2
		if len(s)%2 == 1 {
			return s[mid]
		}
		return (s[mid-1] + s[mid]) / 2
	case "percentile":
		s := append([]float64(nil), vals...)
		sort.Float64s(s)
		idx := (p*len(s) + 99) / 100
		if idx < 1 {
			idx = 1
		}
		if idx > len(s) {
			idx = len(s)
		}
		return s[idx-1]
	default:
		return 0
	}
}

// --- literal sampling ---

// popularCats returns categories ordered by frequency (descending), so
// sampled literals reference populated groups.
func (g *gen) popularCats() []string {
	return g.popular(func(h corpus.Hidden) string { return h.Category })
}

func (g *gen) popularAsps() []string {
	return g.popular(func(h corpus.Hidden) string { return h.Aspect })
}

func (g *gen) popular(key func(h corpus.Hidden) string) []string {
	counts := map[string]int{}
	for _, d := range g.ds.Docs {
		counts[key(d.Hidden)]++
	}
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if counts[names[i]] != counts[names[j]] {
			return counts[names[i]] > counts[names[j]]
		}
		return names[i] < names[j]
	})
	return names
}

// viewsQuantile returns roughly the q-th quantile of view counts, rounded
// to a friendly literal.
func (g *gen) viewsQuantile(q float64) int {
	vals := fieldVals(g.ds.Docs, "views")
	sort.Float64s(vals)
	idx := int(q * float64(len(vals)))
	if idx >= len(vals) {
		idx = len(vals) - 1
	}
	v := int(vals[idx])
	switch {
	case v >= 2000:
		return v / 500 * 500
	case v >= 200:
		return v / 100 * 100
	default:
		return v/10*10 + 10
	}
}

// entity returns the dataset's entity word ("questions"/"articles").
func (g *gen) entity() string { return g.ds.EntityWord }

// pickVariant renders one of the surface variants deterministically.
func pickVariant(i int, variants ...string) string { return variants[i%len(variants)] }

func labelTieSet(vec map[string]float64, dir int) []string {
	best := math.Inf(-1)
	if dir < 0 {
		best = math.Inf(1)
	}
	for _, v := range vec {
		if (dir > 0 && v > best) || (dir < 0 && v < best) {
			best = v
		}
	}
	var out []string
	for k, v := range vec {
		if v == best {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

func num(v float64) Truth { return Truth{Kind: Num, Num: v} }

// instantiate builds instance i of template tpl. ok is false when the
// dataset cannot support the template's literals.
func (g *gen) instantiate(tpl, i int) (Query, bool) {
	cats := g.popularCats()
	asps := g.popularAsps()
	if len(cats) < 3 || len(asps) < 3 {
		return Query{}, false
	}
	// Literals range across the popularity spectrum: early instances use
	// frequent concepts, later ones reach into the tail (rare predicates
	// are what stress cardinality estimation).
	catIdx := []int{1, 4, 7, 9, 11}[i%5]
	cat := cats[catIdx%len(cats)]
	cat2 := cats[(catIdx+1)%len(cats)]
	a1 := asps[(i*2)%min(len(asps), 5)]
	a2 := asps[(i*2+1)%min(len(asps), 5)]
	nViews := g.viewsQuantile([]float64{0.3, 0.45, 0.6, 0.75, 0.85}[i%5])
	nScore := []int{4, 5, 6, 8, 10}[i%5]
	year := []int{2013, 2015, 2017, 2019, 2012}[i%5]
	k := []int{3, 5, 10}[i%3]
	p := []int{75, 90, 95}[i%3]
	ent := g.entity()
	cw := g.ds.CatWord

	q := Query{Template: tpl, ID: fmt.Sprintf("%s-T%02d-%d", g.ds.Name, tpl, i)}
	switch tpl {
	case 1:
		q.Text = pickVariant(i,
			fmt.Sprintf("How many %s about %s have more than %d views?", ent, cat, nViews),
			fmt.Sprintf("Count the %s about %s with over %d views.", ent, cat, nViews),
			fmt.Sprintf("What is the number of %s regarding %s that have more than %d views?", ent, cat, nViews),
		)
		q.USQL = fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE 'related to %s' AND views > %d", g.ds.Name, cat, nViews)
		q.Conditions = []string{"related to " + cat}
		q.Truth = num(float64(g.count(all(g.catPred(cat), func(h corpus.Hidden) bool { return h.Views > nViews }))))
	case 2:
		q.Text = pickVariant(i,
			fmt.Sprintf("What is the average score of %s related to %s?", ent, a1),
			fmt.Sprintf("Compute the mean score of %s about %s.", ent, a1),
		)
		q.USQL = fmt.Sprintf("SELECT AVG(score) FROM %s WHERE 'related to %s'", g.ds.Name, a1)
		q.Conditions = []string{"related to " + a1}
		q.Truth = num(aggVals("avg", fieldVals(g.docsWhere(g.aspPred(a1)), "score"), 0))
	case 3:
		q.Text = pickVariant(i,
			fmt.Sprintf("Among %s with over %d views, which %s has the highest ratio of number of %s related to %s to number of %s related to %s?",
				ent, nViews, cw, ent, a1, ent, a2),
			fmt.Sprintf("Considering only %s with more than %d views, which %s shows the highest ratio of %s-related %s to %s-related %s?",
				ent, nViews, cw, a1, ent, a2, ent),
		)
		q.Conditions = []string{"related to " + a1, "related to " + a2}
		vec := map[string]float64{}
		for _, c := range cats {
			inj := g.count(all(g.catPred(c), g.aspPred(a1), func(h corpus.Hidden) bool { return h.Views > nViews }))
			trn := g.count(all(g.catPred(c), g.aspPred(a2), func(h corpus.Hidden) bool { return h.Views > nViews }))
			if trn > 0 {
				vec[c] = float64(inj) / float64(trn)
			}
		}
		if len(vec) == 0 {
			return Query{}, false
		}
		q.Truth = Truth{Kind: Label, Accept: labelTieSet(vec, 1)}
	case 4:
		q.Text = pickVariant(i,
			fmt.Sprintf("List the top %d most viewed %s about %s.", k, ent, cat),
			fmt.Sprintf("What are the %d %s about %s with the most views?", k, ent, cat),
		)
		q.USQL = fmt.Sprintf("SELECT * FROM %s WHERE 'related to %s' ORDER BY views DESC LIMIT %d", g.ds.Name, cat, k)
		q.Conditions = []string{"related to " + cat}
		docs := g.docsWhere(g.catPred(cat))
		sort.Slice(docs, func(x, y int) bool {
			if docs[x].Hidden.Views != docs[y].Hidden.Views {
				return docs[x].Hidden.Views > docs[y].Hidden.Views
			}
			return docs[x].ID < docs[y].ID
		})
		kk := min(k, len(docs))
		titles := make([]string, kk)
		for j := 0; j < kk; j++ {
			titles[j] = docs[j].Title
		}
		q.Truth = Truth{Kind: Titles, Accept: titles}
	case 5:
		q.Text = pickVariant(i,
			fmt.Sprintf("Are there more %s related to %s or %s related to %s?", ent, a1, ent, a2),
			fmt.Sprintf("Which is larger: the number of %s-related %s or the number of %s-related %s?", a1, ent, a2, ent),
		)
		q.Conditions = []string{"related to " + a1, "related to " + a2}
		c1, c2 := g.count(g.aspPred(a1)), g.count(g.aspPred(a2))
		want := "first"
		if c2 > c1 {
			want = "second"
		}
		q.Truth = Truth{Kind: Choice, Accept: []string{want}}
	case 6:
		q.Text = pickVariant(i,
			fmt.Sprintf("What is the maximum score among %s about %s?", ent, cat),
			fmt.Sprintf("What is the highest score of any %s about %s?", strings.TrimSuffix(ent, "s"), cat),
		)
		q.USQL = fmt.Sprintf("SELECT MAX(score) FROM %s WHERE 'related to %s'", g.ds.Name, cat)
		q.Conditions = []string{"related to " + cat}
		q.Truth = num(aggVals("max", fieldVals(g.docsWhere(g.catPred(cat)), "score"), 0))
	case 7:
		q.Text = pickVariant(i,
			fmt.Sprintf("How many %s posted after %d discuss %s?", ent, year, a1),
			fmt.Sprintf("Count the %s posted after %d that are related to %s.", ent, year, a1),
		)
		q.USQL = fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE year > %d AND 'related to %s'", g.ds.Name, year, a1)
		q.Conditions = []string{"related to " + a1}
		q.Truth = num(float64(g.count(all(g.aspPred(a1), func(h corpus.Hidden) bool { return h.Year > year }))))
	case 8:
		q.Text = pickVariant(i,
			fmt.Sprintf("What is the median number of views for %s about %s?", ent, cat),
			fmt.Sprintf("What is the median views of %s about %s?", ent, cat),
		)
		q.USQL = fmt.Sprintf("SELECT MEDIAN(views) FROM %s WHERE 'related to %s'", g.ds.Name, cat)
		q.Conditions = []string{"related to " + cat}
		q.Truth = num(aggVals("median", fieldVals(g.docsWhere(g.catPred(cat)), "views"), 0))
	case 9:
		q.Text = pickVariant(i,
			fmt.Sprintf("Which %s has the most %s with at least %d upvotes?", cw, ent, nScore),
			fmt.Sprintf("Which %s has the largest number of %s with at least %d upvotes?", cw, ent, nScore),
		)
		q.USQL = fmt.Sprintf("SELECT %s FROM %s WHERE upvotes >= %d GROUP BY %s ORDER BY COUNT(*) DESC LIMIT 1", cw, g.ds.Name, nScore, cw)
		vec := map[string]float64{}
		for _, c := range cats {
			vec[c] = float64(g.count(all(g.catPred(c), func(h corpus.Hidden) bool { return h.Score >= nScore })))
		}
		q.Truth = Truth{Kind: Label, Accept: labelTieSet(vec, 1)}
	case 10:
		q.Text = fmt.Sprintf("What fraction of %s about %s are related to %s?", ent, cat, a1)
		q.Conditions = []string{"related to " + cat, "related to " + a1}
		den := g.count(g.catPred(cat))
		if den == 0 {
			return Query{}, false
		}
		q.Truth = num(float64(g.count(all(g.catPred(cat), g.aspPred(a1)))) / float64(den))
	case 11:
		q.Text = pickVariant(i,
			fmt.Sprintf("How many %s about %s are related to %s?", ent, cat, a1),
			fmt.Sprintf("Count the %s about %s that are related to %s.", ent, cat, a1),
		)
		q.USQL = fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE 'related to %s' AND 'related to %s'", g.ds.Name, cat, a1)
		q.Conditions = []string{"related to " + cat, "related to " + a1}
		q.Truth = num(float64(g.count(all(g.catPred(cat), g.aspPred(a1)))))
	case 12:
		q.Text = fmt.Sprintf("How many %s are about %s or about %s?", ent, cat, cat2)
		q.Conditions = []string{"related to " + cat, "related to " + cat2}
		q.Truth = num(float64(g.count(func(h corpus.Hidden) bool {
			return h.Category == cat || h.Category == cat2
		})))
	case 13:
		q.Text = fmt.Sprintf("Which %ss appear both among %s with over %d views and among %s related to %s?",
			cw, ent, nViews, ent, a1)
		q.Conditions = []string{"related to " + a1}
		setA := map[string]bool{}
		for _, d := range g.docsWhere(func(h corpus.Hidden) bool { return h.Views > nViews }) {
			setA[d.Hidden.Category] = true
		}
		var both []string
		seen := map[string]bool{}
		for _, d := range g.docsWhere(g.aspPred(a1)) {
			c := d.Hidden.Category
			if setA[c] && !seen[c] {
				seen[c] = true
				both = append(both, c)
			}
		}
		sort.Strings(both)
		q.Truth = Truth{Kind: Labels, Accept: both}
	case 14:
		q.Text = pickVariant(i,
			fmt.Sprintf("What is the total number of views across %s about %s?", ent, cat),
			fmt.Sprintf("What is the total number of views of %s about %s?", ent, cat),
		)
		q.USQL = fmt.Sprintf("SELECT SUM(views) FROM %s WHERE 'related to %s'", g.ds.Name, cat)
		q.Conditions = []string{"related to " + cat}
		q.Truth = num(aggVals("sum", fieldVals(g.docsWhere(g.catPred(cat)), "views"), 0))
	case 15:
		q.Text = fmt.Sprintf("What is the %dth percentile of views for %s related to %s?", p, ent, a1)
		q.USQL = fmt.Sprintf("SELECT PERCENTILE(views, %d) FROM %s WHERE 'related to %s'", p, g.ds.Name, a1)
		q.Conditions = []string{"related to " + a1}
		q.Truth = num(aggVals("percentile", fieldVals(g.docsWhere(g.aspPred(a1)), "views"), p))
	case 16:
		q.Text = fmt.Sprintf("Rank the %ss by their number of %s-related %s and report the top 3.", cw, a1, ent)
		q.USQL = fmt.Sprintf("SELECT %s FROM %s WHERE 'related to %s' GROUP BY %s ORDER BY COUNT(*) DESC LIMIT 3", cw, g.ds.Name, a1, cw)
		q.Conditions = []string{"related to " + a1}
		vec := map[string]float64{}
		for _, c := range cats {
			vec[c] = float64(g.count(all(g.catPred(c), g.aspPred(a1))))
		}
		type kv struct {
			l string
			v float64
		}
		var list []kv
		for l, v := range vec {
			list = append(list, kv{l, v})
		}
		sort.Slice(list, func(x, y int) bool {
			if list[x].v != list[y].v {
				return list[x].v > list[y].v
			}
			return list[x].l < list[y].l
		})
		top := make([]string, 0, 3)
		for j := 0; j < len(list) && j < 3; j++ {
			top = append(top, list[j].l)
		}
		q.Truth = Truth{Kind: Labels, Accept: top}
	case 17:
		q.Text = fmt.Sprintf("Which %s about %s has the highest score?", strings.TrimSuffix(ent, "s"), cat)
		q.USQL = fmt.Sprintf("SELECT title FROM %s WHERE 'related to %s' ORDER BY score DESC LIMIT 1", g.ds.Name, cat)
		q.Conditions = []string{"related to " + cat}
		docs := g.docsWhere(g.catPred(cat))
		if len(docs) == 0 {
			return Query{}, false
		}
		best := docs[0]
		for _, d := range docs[1:] {
			if d.Hidden.Score > best.Hidden.Score ||
				(d.Hidden.Score == best.Hidden.Score && d.ID < best.ID) {
				best = d
			}
		}
		q.Truth = Truth{Kind: Title, Accept: []string{best.Title}}
	case 18:
		q.Text = pickVariant(i,
			fmt.Sprintf("How many %s about %s were posted before %d?", ent, cat, year),
			fmt.Sprintf("Count the %s about %s posted before %d.", ent, cat, year),
		)
		q.USQL = fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE 'related to %s' AND year < %d", g.ds.Name, cat, year)
		q.Conditions = []string{"related to " + cat}
		q.Truth = num(float64(g.count(all(g.catPred(cat), func(h corpus.Hidden) bool { return h.Year < year }))))
	case 19:
		q.Text = fmt.Sprintf("What is the average number of views of %s about %s that are related to %s?", ent, cat, a1)
		q.Conditions = []string{"related to " + cat, "related to " + a1}
		q.Truth = num(aggVals("avg", fieldVals(g.docsWhere(all(g.catPred(cat), g.aspPred(a1))), "views"), 0))
	case 20:
		sub, ok := lexicon.LookupSubset(g.ds.SubsetName)
		if !ok {
			return Query{}, false
		}
		q.Text = fmt.Sprintf("Among %ss %s, which one has the most %s related to %s?", cw, sub.Phrase, ent, a1)
		q.Conditions = []string{"related to " + a1}
		vec := map[string]float64{}
		for _, c := range cats {
			if !sub.Members[c] {
				continue
			}
			vec[c] = float64(g.count(all(g.catPred(c), g.aspPred(a1))))
		}
		if len(vec) == 0 {
			return Query{}, false
		}
		q.Truth = Truth{Kind: Label, Accept: labelTieSet(vec, 1)}
	default:
		return Query{}, false
	}
	return q, true
}

// Score reports whether an answer string matches the query's ground
// truth. Numeric answers use a 5% relative (or small absolute) tolerance,
// matching how the paper treats aggregate answers computed over
// LLM-judged sets.
func Score(q Query, answer string) bool {
	answer = strings.TrimSpace(answer)
	switch q.Truth.Kind {
	case Num:
		v, err := strconv.ParseFloat(answer, 64)
		if err != nil {
			return false
		}
		want := q.Truth.Num
		tol := math.Max(2, 0.05*math.Abs(want))
		return math.Abs(v-want) <= tol
	case Label, Choice, Title:
		for _, a := range q.Truth.Accept {
			if strings.EqualFold(answer, a) {
				return true
			}
		}
		return false
	case Labels, Titles:
		got := splitList(answer)
		want := append([]string(nil), q.Truth.Accept...)
		if len(got) != len(want) {
			return false
		}
		sort.Strings(got)
		sort.Strings(want)
		for i := range got {
			if !strings.EqualFold(got[i], want[i]) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

func splitList(s string) []string {
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}

// SemanticConditions collects the distinct semantic filter conditions of
// a workload (the predicates Table III estimates).
func SemanticConditions(queries []Query) []string {
	seen := map[string]bool{}
	var out []string
	for _, q := range queries {
		for _, c := range q.Conditions {
			if !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
	}
	sort.Strings(out)
	return out
}
