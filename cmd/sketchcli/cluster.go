package main

import (
	"flag"
	"fmt"
	"net/url"
	"os"
	"strings"

	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/server/client"
)

// cluster subcommands — the operator's view of a sketchd fleet. status
// polls every shard's /v1/status; merge scatter-gathers one sketch's
// envelopes and tree-merges them locally, so a global answer needs no
// coordinator process at all (merge is the cluster's whole trick).
func runCluster(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: sketchcli cluster <status|merge> [flags]")
	}
	switch args[0] {
	case "status":
		return runClusterStatus(args[1:])
	case "merge":
		return runClusterMerge(args[1:])
	default:
		return fmt.Errorf("usage: sketchcli cluster <status|merge> [flags]")
	}
}

func shardList(s string) ([]string, error) {
	if s == "" {
		return nil, fmt.Errorf("-shards url1,url2,... is required")
	}
	return cluster.ShardURLs(strings.Split(s, ",")), nil
}

func runClusterStatus(args []string) error {
	fs := flag.NewFlagSet("cluster status", flag.ContinueOnError)
	shards := fs.String("shards", "", "comma-separated shard base URLs")
	tenant := fs.String("tenant", "", "show only this tenant's per-shard row (default: all tenants)")
	tenants := fs.Bool("tenants", false, "print a per-tenant row under each shard")
	if err := fs.Parse(args); err != nil {
		return err
	}
	urls, err := shardList(*shards)
	if err != nil {
		return err
	}
	down := 0
	for _, u := range urls {
		st, err := client.New(u).Status()
		if err != nil {
			fmt.Printf("%-28s DOWN  %v\n", u, err)
			down++
			continue
		}
		line := fmt.Sprintf("%-28s up %6.0fs  sketches %-3d adds %-10d", u, st.UptimeSeconds, st.Sketches, st.Ops.Adds)
		if st.Durability.Enabled {
			line += fmt.Sprintf("  wal_lsn %-8d snap_lsn %-8d", st.Durability.WALLSN, st.Durability.LastSnapshotLSN)
		}
		switch st.Replication.Role {
		case "leader":
			line += fmt.Sprintf("  leader lag %d recs (follower seen %dms ago)",
				st.Replication.LagRecords, st.Replication.FollowerAgeMS)
		case "follower":
			line += fmt.Sprintf("  follows %s applied %d lag %d recs",
				st.Replication.Leader, st.Replication.AppliedLSN, st.Replication.LagRecords)
		}
		fmt.Println(line)
		if *tenants || *tenant != "" {
			for _, t := range st.Tenants {
				if *tenant != "" && t.Tenant != *tenant {
					continue
				}
				fmt.Printf("  tenant %-20s sketches %-3d resident %-10d adds %-10d queries %-8d evictions %d\n",
					t.Tenant, t.Sketches, t.ResidentBytes, t.Adds, t.Queries, t.Evictions)
			}
		}
	}
	if down > 0 {
		return fmt.Errorf("%d of %d shards down", down, len(urls))
	}
	return nil
}

func runClusterMerge(args []string) error {
	fs := flag.NewFlagSet("cluster merge", flag.ContinueOnError)
	shards := fs.String("shards", "", "comma-separated shard base URLs")
	name := fs.String("name", "", "sketch name to gather")
	tenant := fs.String("tenant", "", "tenant namespace to gather from (default: the default tenant)")
	out := fs.String("o", "", "write the merged envelope here instead of summarizing it")
	wire := fs.String("wire", "", "envelope form to gather: full or slim (default: each shard's full form)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	urls, err := shardList(*shards)
	if err != nil {
		return err
	}
	if *name == "" {
		return fmt.Errorf("-name is required")
	}
	if _, err := server.WireSlim(*wire); err != nil {
		return fmt.Errorf("-wire: %w", err)
	}
	envs := make([][]byte, 0, len(urls))
	gathered := 0
	for _, u := range urls {
		env, err := client.New(u).Tenant(*tenant).SnapshotWire(*name, *wire)
		if err != nil {
			return fmt.Errorf("shard %s: %w", u, err)
		}
		envs = append(envs, env)
		gathered += len(env)
	}
	merged, env, err := mergeAll(envs)
	if err != nil {
		return err
	}
	if *out != "" {
		if err := os.WriteFile(*out, env, 0o644); err != nil {
			return err
		}
		fmt.Printf("%s: merged %d shard envelopes (%s) into %s (%d bytes)\n",
			*name, len(envs), merged.Desc.Name, *out, len(env))
		return nil
	}
	inst, err := merged.Instance()
	if err != nil {
		return err
	}
	fmt.Printf("%s: %s over %d shards (%d gathered bytes)\n", *name, merged.Desc.Name, len(envs), gathered)
	return answer(merged.Desc, inst, "", []url.Values{{}})
}
