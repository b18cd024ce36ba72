package serve

import (
	"fmt"
	"sort"
	"sync"

	lmfao "repro"
	"repro/internal/data"
)

// Apps is the serving tier's application registry: which of the five paper
// workloads the served batch carries, and where each one's query window
// lives inside the combined batch. Every registered application gets
// /v1/models/{name}/fit (re-fit from the latest snapshot) and, for the
// predictors, /v1/models/{name}/predict. Windows are carved with
// lmfao.SubQueryable, so one session maintains every application's batch
// concatenated and each fit reads only its slice.
type Apps struct {
	// LinReg fits ridge linear regression from the covar window.
	LinReg *LinRegApp
	// PolyReg fits degree-2 polynomial regression from its window.
	PolyReg *PolyRegApp
	// Tree learns a CART decision tree; it needs the Requerier hook, so it
	// runs under requery admission and has no precomputed window.
	Tree *TreeApp
	// ChowLiu computes pairwise mutual information and the Chow-Liu tree
	// from the MI window.
	ChowLiu *ChowLiuApp
	// Cube serves the data-cube window, flattened.
	Cube *CubeApp
}

// Window is a half-open query-index range [Lo, Hi) inside the served batch.
type Window struct {
	Lo, Hi int
}

// LinRegApp configures the linear-regression application.
type LinRegApp struct {
	Win  Window
	Spec lmfao.LinRegSpec
}

// PolyRegApp configures the polynomial-regression application.
type PolyRegApp struct {
	Win  Window
	Spec lmfao.PolySpec
}

// TreeApp configures the decision-tree application (requery-driven).
type TreeApp struct {
	Spec lmfao.TreeSpec
}

// ChowLiuApp configures the mutual-information / Chow-Liu application.
type ChowLiuApp struct {
	Win   Window
	Attrs []lmfao.AttrID
}

// CubeApp configures the data-cube application.
type CubeApp struct {
	Win  Window
	Spec lmfao.CubeSpec
}

// Names lists the registered application names, sorted.
func (a *Apps) Names() []string {
	if a == nil {
		return nil
	}
	var out []string
	if a.LinReg != nil {
		out = append(out, "linreg")
	}
	if a.PolyReg != nil {
		out = append(out, "polyreg")
	}
	if a.Tree != nil {
		out = append(out, "tree")
	}
	if a.ChowLiu != nil {
		out = append(out, "chowliu")
	}
	if a.Cube != nil {
		out = append(out, "cube")
	}
	sort.Strings(out)
	return out
}

// modelCache memoizes fitted models per (app, epoch vector): re-fitting is
// pure over a snapshot, so two fits at the same epochs return the same
// model and the second one is free.
type modelCache struct {
	mu      sync.Mutex
	entries map[string]cachedModel
}

type cachedModel struct {
	epochs string
	value  any
}

// get returns app's cached model if it was fitted at exactly these epochs.
func (c *modelCache) get(app, epochs string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[app]
	if !ok || e.epochs != epochs {
		return nil, false
	}
	return e.value, true
}

// put replaces app's cached model.
func (c *modelCache) put(app, epochs string, v any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries == nil {
		c.entries = make(map[string]cachedModel)
	}
	c.entries[app] = cachedModel{epochs: epochs, value: v}
}

// linregModelWire renders a fitted linear-regression model.
type linregModelWire struct {
	Features  []string  `json:"features"`
	Theta     []float64 `json:"theta"`
	FinalLoss float64   `json:"finalLoss"`
	Epochs    []uint64  `json:"epochs"`
	Cached    bool      `json:"cached"`
}

// polyModelWire renders a fitted polynomial-regression model.
type polyModelWire struct {
	Monomials int       `json:"monomials"`
	Theta     []float64 `json:"theta"`
	Epochs    []uint64  `json:"epochs"`
	Cached    bool      `json:"cached"`
}

// treeModelWire renders a learned decision tree.
type treeModelWire struct {
	Nodes  int      `json:"nodes"`
	Depth  int      `json:"depth"`
	Epochs []uint64 `json:"epochs"`
	Cached bool     `json:"cached"`
}

// chowliuWire renders the Chow-Liu tree over the MI window.
type chowliuWire struct {
	Attrs  []string      `json:"attrs"`
	Edges  []chowliuEdge `json:"edges"`
	Epochs []uint64      `json:"epochs"`
	Cached bool          `json:"cached"`
}

type chowliuEdge struct {
	I      int     `json:"i"`
	J      int     `json:"j"`
	Weight float64 `json:"weight"`
}

// cubeWire renders the flattened data cube (capped).
type cubeWire struct {
	Dims     []string    `json:"dims"`
	Measures []string    `json:"measures"`
	Rows     int         `json:"rows"`
	Data     []resultRow `json:"data"`
	Epochs   []uint64    `json:"epochs"`
	Cached   bool        `json:"cached"`
}

// predictRequest carries one input tuple, keyed by attribute name.
type predictRequest struct {
	Row map[string]float64 `json:"row"`
}

// predictResponse returns the model's prediction for the tuple.
type predictResponse struct {
	Prediction float64  `json:"prediction"`
	Epochs     []uint64 `json:"epochs"`
}

// rowRelation builds a one-row relation from a name-keyed tuple, typed per
// attribute kind, for the PredictRow entry points.
func rowRelation(db *lmfao.Database, row map[string]float64) (*data.Relation, error) {
	if len(row) == 0 {
		return nil, fmt.Errorf("empty input row")
	}
	names := make([]string, 0, len(row))
	for name := range row {
		names = append(names, name)
	}
	sort.Strings(names)
	attrs := make([]lmfao.AttrID, len(names))
	cols := make([]data.Column, len(names))
	for i, name := range names {
		id, ok := db.AttrByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown attribute %q", name)
		}
		attrs[i] = id
		if db.Attribute(id).Kind == data.Numeric {
			cols[i] = data.NewFloatColumn([]float64{row[name]})
		} else {
			v, err := wireInt(row[name])
			if err != nil {
				return nil, fmt.Errorf("attribute %q: %w", name, err)
			}
			cols[i] = data.NewIntColumn([]int64{v})
		}
	}
	return data.NewRelation("input", attrs, cols), nil
}

// treeDepth computes the maximum depth of a learned tree.
func treeDepth(n *lmfao.TreeNode) int {
	if n == nil || n.IsLeaf() {
		return 0
	}
	l, r := treeDepth(n.Left), treeDepth(n.Right)
	if l > r {
		return 1 + l
	}
	return 1 + r
}
