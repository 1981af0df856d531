package main

// ctxflowAnalyzer upgrades the syntactic ctxfirst rule with a module-local
// call-graph walk.  Long-running work is marked with a //ips:blocking doc
// directive (mp.SelfJoinCtx, dist.Batch evaluation, SVM training).  For every
// module function that takes a context.Context, each call edge from which a
// blocking function is reachable must carry the caller's ctx: otherwise
// cancellation stops at that frame and the blocking region runs to
// completion on a context the caller cannot cancel (typically a
// context.Background() smuggled in by a convenience wrapper).
//
// Edges that pass a live ctx are trusted — the callee takes a ctx parameter
// and is checked on its own.  Test files are exempt.
var ctxflowAnalyzer = &Analyzer{
	Name:      "ctxflow",
	Doc:       "blocking call (//ips:blocking) reachable without the caller's ctx flowing into it",
	RunModule: runCtxflow,
}

func runCtxflow(pass *ModulePass) {
	mod := pass.Mod
	// blockedVia memoizes, per function key, the key of a blocking function
	// reachable from it ("" when none).  DFS follows call edges regardless
	// of ctx passing: reachability is a property of the callee's body, and
	// whether THIS caller's ctx makes it there is judged at the edge.
	blockedVia := map[string]string{}
	visiting := map[string]bool{}
	var reaches func(key string) string
	reaches = func(key string) string {
		if via, ok := blockedVia[key]; ok {
			return via
		}
		if visiting[key] {
			return "" // back edge in a cycle: resolved by the outer frame
		}
		fi := mod.Funcs[key]
		if fi.Blocking {
			blockedVia[key] = key
			return key
		}
		visiting[key] = true
		via := ""
		for _, c := range fi.Calls {
			if v := reaches(c.Callee); v != "" {
				via = v
				break
			}
		}
		delete(visiting, key)
		blockedVia[key] = via
		return via
	}

	for _, key := range mod.Order {
		fi := mod.Funcs[key]
		if !fi.HasCtx || fi.TestFile {
			continue
		}
		for _, c := range fi.Calls {
			if c.PassesCtx {
				continue
			}
			callee := mod.Funcs[c.Callee]
			via := ""
			if callee.Blocking {
				via = c.Callee
			} else if v := reaches(c.Callee); v != "" {
				via = v
			}
			if via == "" {
				continue
			}
			if via == c.Callee {
				pass.Reportf(c.Pos, "blocking call to %s without the caller's ctx; pass ctx so cancellation reaches it", shortFuncName(via))
			} else {
				pass.Reportf(c.Pos, "call to %s reaches blocking %s without the caller's ctx; pass ctx so cancellation reaches it", shortFuncName(c.Callee), shortFuncName(via))
			}
		}
	}
}
