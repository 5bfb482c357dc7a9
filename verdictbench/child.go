package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"syscall"
	"time"

	"detcorr/internal/serve"
	"detcorr/internal/serve/api"
)

// A cold verdict runs in a child process: the prover tier ignores
// cancellation, so only killing the process stops a runaway attempt, and a
// fresh process is what "cold caches" means. The child is this same
// binary, started with childEnv set; it reads one task from stdin and
// writes one result to stdout.
const childEnv = "VERDICTBENCH_CHILD"

type childTask struct {
	// Mode is "ping" (answer at once: the set-up probe), "eval" (serve.
	// LoadSource then serve.Eval, untraced), "replay" (the traced replay)
	// or "probe" (the bare exploration a request's tiers exist to avoid).
	Mode string      `json:"mode"`
	Name string      `json:"name"`
	Req  api.Request `json:"req"`
	// LimitMS is the per-verdict limit. The parent kills an eval child at
	// the limit; a replay child stops itself there and reports its spans.
	LimitMS float64 `json:"limit_ms"`
}

type childResult struct {
	Verdict string  `json:"verdict,omitempty"`
	Err     string  `json:"err,omitempty"`
	LoadMS  float64 `json:"load_ms"`
	EvalMS  float64 `json:"eval_ms"`
	// Replay only.
	Spans     []span  `json:"spans,omitempty"`
	Cut       bool    `json:"cut,omitempty"` // the limit struck mid-replay
	ReplayMS  float64 `json:"replay_ms,omitempty"`
	CacheHits int64   `json:"cache_hits,omitempty"`
	CacheMiss int64   `json:"cache_misses,omitempty"`
}

// childMain is the child's whole life.
func childMain() int {
	var task childTask
	if err := json.NewDecoder(os.Stdin).Decode(&task); err != nil {
		fmt.Fprintln(os.Stderr, "child: decode task:", err)
		return 2
	}
	var res childResult
	switch task.Mode {
	case "ping":
	case "eval":
		res = childEval(task.Req)
	case "replay":
		res = childReplay(task)
	case "probe":
		res = childProbe(task)
	default:
		fmt.Fprintln(os.Stderr, "child: unknown mode", task.Mode)
		return 2
	}
	if err := encodeResult(res); err != nil {
		fmt.Fprintln(os.Stderr, "child: encode result:", err)
		return 2
	}
	return 0
}

func encodeResult(res childResult) error { return json.NewEncoder(os.Stdout).Encode(res) }

func childEval(req api.Request) childResult {
	var res childResult
	start := time.Now()
	f, err := serve.LoadSource(req.Program)
	res.LoadMS = ms(time.Since(start))
	if err != nil {
		res.Err = err.Error()
		return res
	}
	t := time.Now()
	resp, err := serve.Eval(context.Background(), f, req)
	res.EvalMS = ms(time.Since(t))
	if err != nil {
		res.Err = err.Error()
		return res
	}
	res.Verdict = resp.Verdict
	return res
}

// childRun is one finished child: its result (nil when it was killed or
// died), whether the limit killed it, its wall time and peak RSS.
type childRun struct {
	res     *childResult
	killed  bool
	wall    time.Duration
	maxRSSK int64
	stderr  string
}

// runChild starts a child on task, with env added to its environment, and
// kills it if it is still running after hardLimit. It always waits for
// the child to end.
func runChild(task childTask, hardLimit time.Duration, env ...string) (childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return childRun{}, err
	}
	in, err := json.Marshal(task)
	if err != nil {
		return childRun{}, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(append(os.Environ(), childEnv+"=1"), env...)
	cmd.Stdin = bytes.NewReader(in)
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return childRun{}, err
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	var run childRun
	var waitErr error
	select {
	case waitErr = <-done:
	case <-time.After(hardLimit):
		_ = cmd.Process.Kill()
		waitErr = <-done
		run.killed = true
	}
	run.wall = time.Since(start)
	run.stderr = errb.String()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		run.maxRSSK = ru.Maxrss
	}
	if run.killed {
		return run, nil
	}
	if waitErr != nil {
		var ee *exec.ExitError
		if !errors.As(waitErr, &ee) {
			return run, waitErr
		}
		return run, fmt.Errorf("child %s exited: %v: %s", task.Name, waitErr, lastLine(run.stderr))
	}
	var res childResult
	if err := json.NewDecoder(&out).Decode(&res); err != nil && err != io.EOF {
		return run, fmt.Errorf("child %s: decode result: %w", task.Name, err)
	}
	run.res = &res
	return run, nil
}

func lastLine(s string) string {
	s = string(bytes.TrimSpace([]byte(s)))
	if i := bytes.LastIndexByte([]byte(s), '\n'); i >= 0 {
		return s[i+1:]
	}
	return s
}
