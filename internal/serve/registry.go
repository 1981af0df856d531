package serve

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"

	"ips/internal/core"
	"ips/internal/dist"
	"ips/internal/errs"
	"ips/internal/obs"
)

// version is one immutable loaded model version.  Everything an evaluation
// needs — the model and its prepared shapelet batch — hangs off this struct,
// so resolving the slot's atomic pointer once per request is the whole
// consistency story: a hot-swap publishes a new *version in a single store
// and in-flight requests keep (and drain on) the one they resolved.
type version struct {
	id     int64
	source string
	model  *core.Model
	// batch is the version's shapelet queries, their energies computed
	// exactly once.  Every request served by this version evaluates against
	// it with a token-owned dist.Scratch, so the steady-state classify path
	// allocates nothing and retains nothing per request.
	batch *dist.Batch
}

// slot is one model name: an atomically swappable current version plus the
// admission gate, which survives swaps so waiting requests ride through a
// deploy untouched.
type slot struct {
	name    string
	cur     atomic.Pointer[version]
	gate    *gate
	retired atomic.Bool
	lastID  atomic.Int64
}

// registry maps model names (and aliases) to slots.  The map is guarded by
// a mutex — admin operations are rare — while the per-request hot path only
// takes the read lock to resolve a name and then works lock-free off the
// slot's atomic version pointer.
type registry struct {
	srv     *Server
	mu      sync.RWMutex
	slots   map[string]*slot  // canonical name -> slot
	aliases map[string]string // alias -> canonical name
}

func newRegistry(srv *Server) *registry {
	return &registry{srv: srv, slots: map[string]*slot{}, aliases: map[string]string{}}
}

// ModelInfo is the admin view of one registered name.
type ModelInfo struct {
	Name      string `json:"name"`
	Version   int64  `json:"version"`
	Source    string `json:"source,omitempty"`
	State     string `json:"state"` // "active" or "retired"
	Shapelets int    `json:"shapelets"`
	Classes   int    `json:"classes"`
	AliasOf   string `json:"alias_of,omitempty"`
}

// Register publishes m as the next version of name, creating the slot (and
// its gate) on first sight and atomically hot-swapping on a reload.  The old
// version is not torn down: requests that already resolved it finish on it,
// and it is garbage once they drain.  Registering over a retired name
// revives it.
func (s *Server) Register(ctx context.Context, name, source string, m *core.Model) (ModelInfo, error) {
	if name == "" {
		return ModelInfo{}, errs.BadInput(errs.StageServe, "serve.register", "", "empty model name")
	}
	if m == nil || m.SVM == nil || m.Scaler == nil || len(m.Shapelets) == 0 {
		return ModelInfo{}, errs.BadInput(errs.StageServe, "serve.register", name, "model is nil or untrained")
	}
	r := s.reg
	r.mu.Lock()
	if _, isAlias := r.aliases[name]; isAlias {
		r.mu.Unlock()
		return ModelInfo{}, errs.BadInput(errs.StageServe, "serve.register", name,
			"%q is an alias; load under its canonical name", name)
	}
	sl := r.slots[name]
	if sl == nil {
		sl = &slot{name: name}
		sl.gate = newGate(s, sl)
		r.slots[name] = sl
	}
	r.mu.Unlock()

	queries := make([][]float64, len(m.Shapelets))
	for i, sh := range m.Shapelets {
		queries[i] = sh.Values
	}
	batch := dist.NewBatch(queries)
	v := &version{id: sl.lastID.Add(1), source: source, model: m, batch: batch}
	sl.cur.Store(v)
	sl.retired.Store(false)

	met := s.metrics()
	if v.id > 1 {
		met.Counter("serve.models.swaps").Inc()
	}
	met.Gauge("serve.models.loaded").Set(float64(r.activeCount()))
	obs.Log(ctx).Info("model registered", "op", "serve.register",
		"model", name, "version", v.id, "source", source,
		"shapelets", len(m.Shapelets), "classes", len(m.SVM.Classes))
	return infoFor(name, sl, ""), nil
}

// LoadFile loads a saved model file and registers it under name.  A damaged
// file comes back as the typed errs.ErrBadInput that core.LoadModel
// guarantees, so an admin load of a corrupt artifact is a 400, never a
// crashed daemon.
func (s *Server) LoadFile(ctx context.Context, name, path string) (ModelInfo, error) {
	sp := s.cfg.Obs.Root().Child("serve.load")
	defer sp.End()
	sp.SetString("model", name)
	sp.SetString("path", path)
	m, err := core.LoadModelFile(path)
	if err != nil {
		obs.Log(ctx).Warn("model load failed", obs.ErrAttrs(err)...)
		return ModelInfo{}, errs.Wrap(errs.StageServe, "serve.load", name, err)
	}
	info, err := s.Register(ctx, name, path, m)
	if err != nil {
		return ModelInfo{}, err
	}
	sp.SetInt("version", info.Version)
	return info, nil
}

// Alias makes alias resolve to the slot of target.  Aliases are how a
// deployment exposes a stable routing name ("prod") over versioned loads.
func (s *Server) Alias(ctx context.Context, alias, target string) (ModelInfo, error) {
	if alias == "" || target == "" {
		return ModelInfo{}, errs.BadInput(errs.StageServe, "serve.alias", alias, "alias and target must be non-empty")
	}
	r := s.reg
	r.mu.Lock()
	defer r.mu.Unlock()
	if canonical, ok := r.aliases[target]; ok {
		target = canonical // aliasing an alias lands on the canonical slot
	}
	sl := r.slots[target]
	if sl == nil {
		return ModelInfo{}, notFound("serve.alias", target)
	}
	if _, exists := r.slots[alias]; exists {
		return ModelInfo{}, errs.BadInput(errs.StageServe, "serve.alias", alias,
			"%q already names a loaded model", alias)
	}
	r.aliases[alias] = target
	obs.Log(ctx).Info("alias created", "op", "serve.alias", "alias", alias, "target", target)
	return infoFor(alias, sl, target), nil
}

// Retire stops serving name: admission starts refusing with a typed 503 and
// requests still waiting for a token fail the same way once they get one.
// The slot (and its gate) stay, so a later Register revives the name with a
// fresh version.
func (s *Server) Retire(ctx context.Context, name string) (ModelInfo, error) {
	sl, err := s.reg.resolve(name)
	if err != nil {
		return ModelInfo{}, err
	}
	sl.retired.Store(true)
	met := s.metrics()
	met.Counter("serve.models.retired").Inc()
	met.Gauge("serve.models.loaded").Set(float64(s.reg.activeCount()))
	obs.Log(ctx).Info("model retired", "op", "serve.retire", "model", sl.name)
	return infoFor(sl.name, sl, ""), nil
}

// List returns every registered name — canonical slots and aliases — sorted
// by name for deterministic admin output.
func (s *Server) List() []ModelInfo {
	r := s.reg
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.slots)+len(r.aliases))
	for name := range r.slots {
		names = append(names, name)
	}
	for alias := range r.aliases {
		names = append(names, alias)
	}
	sort.Strings(names)
	out := make([]ModelInfo, 0, len(names))
	for _, name := range names {
		if target, ok := r.aliases[name]; ok {
			out = append(out, infoFor(name, r.slots[target], target))
			continue
		}
		out = append(out, infoFor(name, r.slots[name], ""))
	}
	return out
}

// infoFor snapshots a slot into its admin view.
func infoFor(name string, sl *slot, aliasOf string) ModelInfo {
	info := ModelInfo{Name: name, State: "active", AliasOf: aliasOf}
	if sl.retired.Load() {
		info.State = "retired"
	}
	if v := sl.cur.Load(); v != nil {
		info.Version = v.id
		info.Source = v.source
		info.Shapelets = len(v.model.Shapelets)
		info.Classes = len(v.model.SVM.Classes)
	}
	return info
}

// resolve maps a request's model name (or alias) to its slot.
func (r *registry) resolve(name string) (*slot, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if canonical, ok := r.aliases[name]; ok {
		name = canonical
	}
	sl := r.slots[name]
	if sl == nil {
		return nil, notFound("serve.resolve", name)
	}
	return sl, nil
}

// activeCount counts non-retired slots; callers hold no particular lock —
// the count feeds a gauge, slight staleness is fine.
func (r *registry) activeCount() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for _, sl := range r.slots {
		if !sl.retired.Load() {
			n++
		}
	}
	return n
}
