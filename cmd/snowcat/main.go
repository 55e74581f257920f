// Command snowcat is the CLI entry point for the Snowcat-Go reproduction.
//
// Subcommands mirror the paper's workflow (§3):
//
//	genkernel  — generate a synthetic kernel and print its statistics
//	collect    — collect a labelled CT-graph dataset from a kernel
//	train      — run the full §5.1 pipeline (collect, pretrain, train, tune)
//	             and save the PIC model
//	finetune   — fine-tune a saved model on a mutated kernel version (§5.4)
//	eval       — evaluate a saved model against the §5.2.1 baselines
//	campaign   — run PCT vs MLPCT testing campaigns (§5.3.2)
//	learn      — close the loop: stream executed outcomes into the
//	             dataset, warm-start retrain, hot-swap served versions
//	             mid-campaign on the simulated clock
//	amplify    — grow an observed failure's reproduction rate by
//	             schedule-neighborhood search (optionally PIC-guided)
//	razzer     — reproduce planted races with the Razzer variants (§5.6.1)
//	snowboard  — compare cluster exemplar samplers (§5.6.2)
//	serve      — run the batching prediction server (see internal/serve)
//	loadgen    — drive open-loop /v1/predict_cti load at a server, or at
//	             the serve command's server started in-process
//
// Every subcommand is deterministic given its -seed flag.
package main

import (
	"flag"
	"fmt"
	"os"
)

// command describes one subcommand.
type command struct {
	name    string
	summary string
	run     func(args []string) error
}

var commands []command

func init() {
	commands = []command{
		{"genkernel", "generate a synthetic kernel and print statistics", cmdGenKernel},
		{"collect", "collect a labelled CT-graph dataset", cmdCollect},
		{"train", "train a PIC model (collect + pretrain + train + tune)", cmdTrain},
		{"finetune", "fine-tune a saved model on a mutated kernel", cmdFineTune},
		{"eval", "evaluate a saved model against the baselines", cmdEval},
		{"campaign", "run PCT vs MLPCT campaigns", cmdCampaign},
		{"learn", "run the closed loop: stream outcomes, retrain, hot-swap", cmdLearn},
		{"amplify", "amplify an observed failure into a reliable reproducer", cmdAmplify},
		{"razzer", "reproduce planted races with Razzer variants", cmdRazzer},
		{"snowboard", "compare cluster exemplar samplers", cmdSnowboard},
		{"trace", "print an annotated interleaving timeline", cmdTrace},
		{"serve", "run the batching prediction server (HTTP JSON API)", cmdServe},
		{"loadgen", "drive open-loop load at a server or an in-process one", cmdLoadgen},
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: snowcat <command> [flags]")
	fmt.Fprintln(os.Stderr, "commands:")
	for _, c := range commands {
		fmt.Fprintf(os.Stderr, "  %-10s %s\n", c.name, c.summary)
	}
	fmt.Fprintln(os.Stderr, "run 'snowcat <command> -h' for command flags")
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	name := os.Args[1]
	for _, c := range commands {
		if c.name == name {
			if err := c.run(os.Args[2:]); err != nil {
				fmt.Fprintf(os.Stderr, "snowcat %s: %v\n", name, err)
				os.Exit(1)
			}
			return
		}
	}
	fmt.Fprintf(os.Stderr, "snowcat: unknown command %q\n", name)
	usage()
	os.Exit(2)
}

// newFlagSet builds a flag set with the shared -seed flag. Parse errors
// are returned (not os.Exit'ed) so main reports them uniformly and tests
// can exercise the flag plumbing.
func newFlagSet(name string) (*flag.FlagSet, *uint64) {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "deterministic seed for every random choice")
	return fs, seed
}
