// Package adtech reproduces the paper's online-advertising application
// (§3): "how many individuals were their adverts reaching?" answered
// with distinct-count sketches over cookie ids, with the ability to
// "slice and dice these statistics … across multiple dimensions (e.g.,
// demographic attributes)". The package provides a synthetic impression
// log (the substitution for proprietary ad-server data, DESIGN.md §3)
// and a reach reporter that maintains one HLL per (campaign, dimension,
// value) cell; because HLL merge is lossless union, any roll-up along a
// dimension is computed from the cells without double counting — the
// property experiment E14 verifies against exact set arithmetic.
package adtech

import (
	"fmt"
	"sort"

	"repro/internal/cardinality"
	"repro/internal/hashx"
	"repro/internal/mergex"
	"repro/internal/randx"
)

// Impression is one ad-serving event.
type Impression struct {
	CampaignID int
	UserID     uint64 // cookie
	Region     string
	Device     string
	AgeBracket string
}

// Regions, Devices and AgeBrackets enumerate the demographic dimensions
// of the synthetic log.
var (
	Regions     = []string{"na", "eu", "apac", "latam"}
	Devices     = []string{"mobile", "desktop", "tablet"}
	AgeBrackets = []string{"18-24", "25-34", "35-49", "50+"}
)

// Generator produces a synthetic impression log: Zipf-popular
// campaigns, Zipf-active users (heavy users see many ads — the
// double-counting hazard reach measurement exists to solve), and
// per-user demographics assigned deterministically by hash so the same
// cookie always reports the same attributes.
type Generator struct {
	rng       *randx.RNG
	campaigns *randx.Zipf
	users     *randx.Zipf
	seed      uint64
}

// NewGenerator creates a generator over the given numbers of campaigns
// and users.
func NewGenerator(nCampaigns, nUsers int, seed uint64) *Generator {
	rng := randx.New(seed)
	return &Generator{
		rng:       rng,
		campaigns: randx.NewZipf(rng, 1.1, nCampaigns),
		users:     randx.NewZipf(rng, 1.05, nUsers),
		seed:      seed,
	}
}

// Next returns the next impression.
func (g *Generator) Next() Impression {
	user := g.users.Next()
	return Impression{
		CampaignID: int(g.campaigns.Next()),
		UserID:     user,
		Region:     Regions[hashx.HashUint64(user, g.seed^1)%uint64(len(Regions))],
		Device:     Devices[hashx.HashUint64(user, g.seed^2)%uint64(len(Devices))],
		AgeBracket: AgeBrackets[hashx.HashUint64(user, g.seed^3)%uint64(len(AgeBrackets))],
	}
}

// Reporter maintains reach sketches per campaign and per
// (campaign, dimension, value) cell.
type Reporter struct {
	precision uint8
	seed      uint64
	total     map[int]*cardinality.HLL
	cells     map[string]*cardinality.HLL // key: campaign|dim|value
}

// NewReporter creates a reporter with HLL precision p (p=14 gives
// ~0.8% reach error at 12 KiB per cell).
func NewReporter(p uint8, seed uint64) *Reporter {
	return &Reporter{
		precision: p,
		seed:      seed,
		total:     make(map[int]*cardinality.HLL),
		cells:     make(map[string]*cardinality.HLL),
	}
}

func cellKey(campaign int, dim, value string) string {
	return fmt.Sprintf("%d|%s|%s", campaign, dim, value)
}

func (r *Reporter) cell(campaign int, dim, value string) *cardinality.HLL {
	k := cellKey(campaign, dim, value)
	h, ok := r.cells[k]
	if !ok {
		h = cardinality.NewHLL(r.precision, r.seed)
		r.cells[k] = h
	}
	return h
}

// Record folds one impression into the total and per-dimension cells.
func (r *Reporter) Record(imp Impression) {
	t, ok := r.total[imp.CampaignID]
	if !ok {
		t = cardinality.NewHLL(r.precision, r.seed)
		r.total[imp.CampaignID] = t
	}
	t.AddUint64(imp.UserID)
	r.cell(imp.CampaignID, "region", imp.Region).AddUint64(imp.UserID)
	r.cell(imp.CampaignID, "device", imp.Device).AddUint64(imp.UserID)
	r.cell(imp.CampaignID, "age", imp.AgeBracket).AddUint64(imp.UserID)
}

// Reach returns the estimated distinct users exposed to a campaign.
func (r *Reporter) Reach(campaign int) float64 {
	if t, ok := r.total[campaign]; ok {
		return t.Estimate()
	}
	return 0
}

// SliceReach returns the estimated distinct users exposed to a campaign
// within one dimension value (e.g. region="eu").
func (r *Reporter) SliceReach(campaign int, dim, value string) float64 {
	if h, ok := r.cells[cellKey(campaign, dim, value)]; ok {
		return h.Estimate()
	}
	return 0
}

// RollupReach re-derives total campaign reach by merging all cells of
// one dimension — the "slice and dice" union that plain counters cannot
// do without double counting. The result matches Reach exactly because
// HLL merge is lossless.
func (r *Reporter) RollupReach(campaign int, dim string) (float64, error) {
	var values []string
	switch dim {
	case "region":
		values = Regions
	case "device":
		values = Devices
	case "age":
		values = AgeBrackets
	default:
		return 0, fmt.Errorf("adtech: unknown dimension %q", dim)
	}
	sketches := make([]*cardinality.HLL, 0, len(values))
	for _, v := range values {
		if h, ok := r.cells[cellKey(campaign, dim, v)]; ok {
			sketches = append(sketches, h)
		}
	}
	return r.unionReach(sketches)
}

// CombinedReach estimates the distinct users reached by *any* of the
// given campaigns (the cross-campaign dedup advertisers ask for).
func (r *Reporter) CombinedReach(campaigns ...int) (float64, error) {
	sketches := make([]*cardinality.HLL, 0, len(campaigns))
	for _, c := range campaigns {
		if t, ok := r.total[c]; ok {
			sketches = append(sketches, t)
		}
	}
	return r.unionReach(sketches)
}

// unionReach estimates the union cardinality of the given sketches by
// a parallel tree merge over clones (mergex.Tree mutates its inputs;
// the reporter's cells must survive the roll-up). Lossless HLL merge
// is associative, so the tree grouping returns exactly the serial
// fold's registers.
func (r *Reporter) unionReach(sketches []*cardinality.HLL) (float64, error) {
	if len(sketches) == 0 {
		return 0, nil
	}
	clones := make([]*cardinality.HLL, len(sketches))
	for i, h := range sketches {
		clones[i] = h.Clone()
	}
	merged, err := mergex.Tree(clones, (*cardinality.HLL).Merge)
	if err != nil {
		return 0, err
	}
	return merged.Estimate(), nil
}

// Campaigns returns all campaign ids seen, sorted.
func (r *Reporter) Campaigns() []int {
	out := make([]int, 0, len(r.total))
	for c := range r.total {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}

// SketchCount returns the number of HLLs maintained.
func (r *Reporter) SketchCount() int { return len(r.total) + len(r.cells) }

// SizeBytes returns the total sketch memory — the figure E14 compares
// against the exact per-campaign user sets.
func (r *Reporter) SizeBytes() int {
	total := 0
	for _, h := range r.total {
		total += h.SizeBytes()
	}
	for _, h := range r.cells {
		total += h.SizeBytes()
	}
	return total
}
