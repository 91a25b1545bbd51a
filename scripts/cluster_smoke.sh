#!/bin/sh
# Cluster smoke test: stand up three sketchd shards (one durable) plus
# a coordinator as real processes, drive ingest through the
# coordinator — in the default namespace AND through two tenant
# namespaces — then exercise the partial-failure contract end to end:
# kill -9 a shard, assert global reads fail 503 *naming* the dead
# shard, assert ?allow_partial=true serves a degraded estimate labeled
# with both the shard and the tenant, assert ingest is refused exactly
# when it is the dead shard's turn, restart the shard from its WAL,
# and assert per-tenant state comes back exactly. CI runs this on
# every push (cluster-smoke job) and archives the transcript.
set -eu
cd "$(dirname "$0")/.."

WORK=$(mktemp -d)
PIDS=""
cleanup() {
	for p in $PIDS; do
		kill "$p" 2>/dev/null || true
	done
	# Reap before rm: the durable shard writes a final snapshot on
	# SIGTERM, and removing the tree under it races that write.
	for p in $PIDS; do
		wait "$p" 2>/dev/null || true
	done
	rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

COORD=127.0.0.1:7700
S1=127.0.0.1:7701
S2=127.0.0.1:7702
S3=127.0.0.1:7703

wait_ready() {
	i=0
	while ! curl -fsS "http://$1/v1/status" >/dev/null 2>&1; do
		i=$((i + 1))
		if [ "$i" -gt 100 ]; then
			echo "FAIL: timeout waiting for $1" >&2
			exit 1
		fi
		sleep 0.1
	done
}

echo "== build"
go build -o "$WORK/sketchd" ./cmd/sketchd
go build -o "$WORK/sketchcli" ./cmd/sketchcli

echo "== start 3 shards (shard 3 durable) + coordinator"
"$WORK/sketchd" -addr "$S1" &
PIDS="$PIDS $!"
"$WORK/sketchd" -addr "$S2" &
PIDS="$PIDS $!"
# fsync-interval 0 = fsync every batch: the kill -9 below must land
# outside any group-commit loss window for the exact-recovery check.
"$WORK/sketchd" -addr "$S3" -data-dir "$WORK/shard3" -fsync-interval 0 &
S3_PID=$!
PIDS="$PIDS $S3_PID"
"$WORK/sketchd" -coordinator -shards "$S1,$S2,$S3" -addr "$COORD" &
PIDS="$PIDS $!"
for h in "$S1" "$S2" "$S3" "$COORD"; do wait_ready "$h"; done

# A batch lands whole on one shard, so the stream goes in as several:
# every shard (the durable one too) then holds a share of it.
ingest() { # ingest <path> <prefix> <batches of 5000>
	b=0
	while [ "$b" -lt "$3" ]; do
		seq $((b * 5000 + 1)) $((b * 5000 + 5000)) | sed "s/^/$2-/" |
			curl -fsS -X POST --data-binary @- "http://$COORD$1/add" >/dev/null
		b=$((b + 1))
	done
}

echo "== create + ingest 50000 distinct items through the coordinator"
curl -fsS -X POST "http://$COORD/v1/sketch/users" -d '{"type":"hll","p":12}' >/dev/null
ingest /v1/sketch/users user 10

EST=$(curl -fsS "http://$COORD/v1/sketch/users/query" |
	sed 's/.*"estimate":\([0-9.e+]*\).*/\1/')
echo "global estimate: $EST (true 50000)"
awk -v e="$EST" 'BEGIN { d = e / 50000; if (d < 0.95 || d > 1.05) exit 1 }' ||
	{ echo "FAIL: estimate $EST outside 5% of 50000"; exit 1; }

# Build where the data is, ship the envelope, merge: the same lines
# sketched locally are the cluster's merged sketch to the byte, since an
# HLL merge is the union (registry law M4) and both use seed 1.
echo "== the users stream sketched locally with sketchcli = the coordinator's merged snapshot"
seq 1 50000 | sed 's/^/user-/' | "$WORK/sketchcli" sketch hll -p 12 -o "$WORK/users-local.bin"
curl -fsS "http://$COORD/v1/sketch/users/snapshot" -o "$WORK/users-cluster.bin"
echo "local $(wc -c <"$WORK/users-local.bin") bytes, cluster $(wc -c <"$WORK/users-cluster.bin") bytes"
cmp -s "$WORK/users-local.bin" "$WORK/users-cluster.bin" ||
	{ echo "FAIL: sketchcli sketch hll -p 12 over the users stream differs from the merged /snapshot"; exit 1; }

HEALTHY=$(curl -fsS "http://$COORD/v1/cluster/status" | grep -o '"healthy":[0-9]*')
echo "cluster status: $HEALTHY"
[ "$HEALTHY" = '"healthy":3' ] || { echo "FAIL: want 3 healthy shards"; exit 1; }

echo "== a request at fault gets its own status through the coordinator, not 503"
expect() { # expect <code> <what> <curl args...>
	want=$1 what=$2
	shift 2
	CODE=$(curl -s -o "$WORK/body" -w '%{http_code}' "$@")
	echo "$what: HTTP $CODE $(head -c 200 "$WORK/body")"
	[ "$CODE" = "$want" ] || { echo "FAIL: $what: want $want, got $CODE"; exit 1; }
}
curl -fsS -X POST "http://$COORD/v1/sketch/hits" -d '{"type":"countmin"}' >/dev/null
expect 404 "query on an unknown sketch" "http://$COORD/v1/sketch/no-such-sketch/query"
expect 400 "batch with a bad weight" -X POST --data-binary 'checkout	many' "http://$COORD/v1/sketch/hits/add"
expect 200 "type catalogue" "http://$COORD/v1/types"
expect 501 "list (shard-local)" "http://$COORD/v1/sketch"
expect 400 "merge of a corrupt envelope (forwarded to one shard)" -X POST --data-binary 'junk' "http://$COORD/v1/sketch/hits/merge"

echo "== two tenants through the coordinator: same sketch name, disjoint state"
curl -fsS -X POST "http://$COORD/v1/t/acme/sketch/users" -d '{"type":"hll","p":12}' >/dev/null
curl -fsS -X POST "http://$COORD/v1/t/globex/sketch/users" -d '{"type":"hll","p":12}' >/dev/null
ingest /v1/t/acme/sketch/users acme 4
ingest /v1/t/globex/sketch/users globex 1

ACME=$(curl -fsS "http://$COORD/v1/t/acme/sketch/users/query" |
	sed 's/.*"estimate":\([0-9.e+]*\).*/\1/')
GLOBEX=$(curl -fsS "http://$COORD/v1/t/globex/sketch/users/query" |
	sed 's/.*"estimate":\([0-9.e+]*\).*/\1/')
echo "acme estimate: $ACME (true 20000), globex estimate: $GLOBEX (true 5000)"
awk -v e="$ACME" 'BEGIN { d = e / 20000; if (d < 0.95 || d > 1.05) exit 1 }' ||
	{ echo "FAIL: acme estimate $ACME outside 5% of 20000"; exit 1; }
awk -v e="$GLOBEX" 'BEGIN { d = e / 5000; if (d < 0.95 || d > 1.05) exit 1 }' ||
	{ echo "FAIL: globex estimate $GLOBEX outside 5% of 5000 (tenant state leaked?)"; exit 1; }

# Shard 3's own estimates (default + acme namespaces), for the
# exact-recovery check: ingest while it is down reaches the surviving
# shards only, so shard 3 must come back from its WAL with precisely
# this state.
S3EST=$(curl -fsS "http://$S3/v1/sketch/users/query" |
	sed 's/.*"estimate":\([0-9.e+]*\).*/\1/')
S3ACME=$(curl -fsS "http://$S3/v1/t/acme/sketch/users/query" |
	sed 's/.*"estimate":\([0-9.e+]*\).*/\1/')
echo "shard 3 estimates before kill: default $S3EST, acme $S3ACME"

echo "== kill -9 shard 3, assert degraded reads name it"
kill -9 "$S3_PID"
wait "$S3_PID" 2>/dev/null || true

CODE=$(curl -s -o "$WORK/body" -w '%{http_code}' "http://$COORD/v1/sketch/users/query")
echo "strict query after kill: HTTP $CODE $(cat "$WORK/body")"
[ "$CODE" = 503 ] || { echo "FAIL: want 503, got $CODE"; exit 1; }
grep -q "$S3" "$WORK/body" || { echo "FAIL: 503 body does not name dead shard $S3"; exit 1; }

CODE=$(curl -s -o "$WORK/body" -w '%{http_code}' "http://$COORD/v1/sketch/users/query?allow_partial=true")
echo "partial query after kill: HTTP $CODE $(cat "$WORK/body")"
[ "$CODE" = 200 ] || { echo "FAIL: allow_partial want 200, got $CODE"; exit 1; }
grep -q '"partial":true' "$WORK/body" || { echo "FAIL: degraded read not labeled partial"; exit 1; }
grep -q "$S3" "$WORK/body" || { echo "FAIL: partial body does not name dead shard"; exit 1; }

# Tenant-scoped degradation carries the tenant label alongside the
# dead shard, so a multi-tenant operator can attribute the failure.
CODE=$(curl -s -o "$WORK/body" -w '%{http_code}' "http://$COORD/v1/t/acme/sketch/users/query")
echo "strict acme query after kill: HTTP $CODE $(cat "$WORK/body")"
[ "$CODE" = 503 ] || { echo "FAIL: tenant strict query want 503, got $CODE"; exit 1; }
grep -q '"tenant":"acme"' "$WORK/body" || { echo "FAIL: tenant 503 not labeled with tenant"; exit 1; }
grep -q "$S3" "$WORK/body" || { echo "FAIL: tenant 503 does not name dead shard"; exit 1; }

CODE=$(curl -s -o "$WORK/body" -w '%{http_code}' "http://$COORD/v1/t/acme/sketch/users/query?allow_partial=true")
echo "partial acme query after kill: HTTP $CODE $(cat "$WORK/body")"
[ "$CODE" = 200 ] || { echo "FAIL: tenant allow_partial want 200, got $CODE"; exit 1; }
grep -q '"partial":true' "$WORK/body" || { echo "FAIL: tenant degraded read not labeled partial"; exit 1; }
grep -q '"tenant":"acme"' "$WORK/body" || { echo "FAIL: tenant degraded read not labeled with tenant"; exit 1; }

# A batch goes whole to the shard whose turn it is: of one probe batch
# per shard exactly one has the dead shard's turn and fails loudly,
# naming it; the others are acknowledged. The refused batch is on no
# shard.
REFUSED=0
for i in 1 2 3; do
	CODE=$(seq 1 200 | sed "s/^/probe$i-/" | curl -s -o "$WORK/body" -w '%{http_code}' -X POST --data-binary @- "http://$COORD/v1/sketch/users/add" || true)
	echo "ingest after kill, probe batch $i: HTTP $CODE"
	case "$CODE" in
	200) ;;
	503)
		REFUSED=$((REFUSED + 1))
		REFUSED_BATCH=$i
		grep -q "$S3" "$WORK/body" || { echo "FAIL: ingest 503 does not name dead shard $S3"; exit 1; }
		;;
	*) echo "FAIL: ingest with dead shard want 200 or 503, got $CODE"; exit 1 ;;
	esac
done
[ "$REFUSED" = 1 ] || { echo "FAIL: $REFUSED of 3 probe batches refused, want exactly the dead shard's turn"; exit 1; }

echo "== restart shard 3 from its WAL, assert exact recovery"
"$WORK/sketchd" -addr "$S3" -data-dir "$WORK/shard3" -fsync-interval 0 &
PIDS="$PIDS $!"
wait_ready "$S3"

S3EST2=$(curl -fsS "http://$S3/v1/sketch/users/query" |
	sed 's/.*"estimate":\([0-9.e+]*\).*/\1/')
S3ACME2=$(curl -fsS "http://$S3/v1/t/acme/sketch/users/query" |
	sed 's/.*"estimate":\([0-9.e+]*\).*/\1/')
echo "shard 3 estimates after recovery: default $S3EST2, acme $S3ACME2"
[ "$S3EST2" = "$S3EST" ] || { echo "FAIL: shard 3 state changed across crash+recovery: $S3EST -> $S3EST2"; exit 1; }
[ "$S3ACME2" = "$S3ACME" ] || { echo "FAIL: shard 3 acme tenant changed across crash+recovery: $S3ACME -> $S3ACME2"; exit 1; }

# Re-sending the refused probe batch now succeeds (it was applied
# nowhere, so nothing is counted twice), and the cluster is whole again.
seq 1 200 | sed "s/^/probe$REFUSED_BATCH-/" |
	curl -fsS -X POST --data-binary @- "http://$COORD/v1/sketch/users/add" >/dev/null
EST2=$(curl -fsS "http://$COORD/v1/sketch/users/query" |
	sed 's/.*"estimate":\([0-9.e+]*\).*/\1/')
echo "global estimate after recovery + re-sent batch: $EST2 (true 50600)"
awk -v e="$EST2" 'BEGIN { d = e / 50600; if (d < 0.95 || d > 1.05) exit 1 }' ||
	{ echo "FAIL: estimate $EST2 outside 5% of 50600"; exit 1; }
HEALTHY=$(curl -fsS "http://$COORD/v1/cluster/status" | grep -o '"healthy":[0-9]*')
[ "$HEALTHY" = '"healthy":3' ] || { echo "FAIL: want 3 healthy shards after recovery"; exit 1; }

# Both tenants read whole again through the coordinator, still disjoint.
ACME2=$(curl -fsS "http://$COORD/v1/t/acme/sketch/users/query" |
	sed 's/.*"estimate":\([0-9.e+]*\).*/\1/')
GLOBEX2=$(curl -fsS "http://$COORD/v1/t/globex/sketch/users/query" |
	sed 's/.*"estimate":\([0-9.e+]*\).*/\1/')
echo "tenant estimates after recovery: acme $ACME2, globex $GLOBEX2"
awk -v e="$ACME2" 'BEGIN { d = e / 20000; if (d < 0.95 || d > 1.05) exit 1 }' ||
	{ echo "FAIL: acme estimate $ACME2 outside 5% of 20000 after recovery"; exit 1; }
awk -v e="$GLOBEX2" 'BEGIN { d = e / 5000; if (d < 0.95 || d > 1.05) exit 1 }' ||
	{ echo "FAIL: globex estimate $GLOBEX2 outside 5% of 5000 after recovery"; exit 1; }

# A merged /snapshot read twice equals the merge of the shards' own
# snapshots both times; the second finds every shard unchanged, so the
# coordinator's gather slot answers it and its not_modified count moves.
echo "== merged /snapshot twice after recovery: the second from unchanged shards"
"$WORK/sketchcli" cluster merge -shards "$S1,$S2,$S3" -name users -o "$WORK/merged.bin" >/dev/null
not_modified() {
	curl -fsS "http://$COORD/v1/status" | grep -o '"not_modified":[0-9]*' | cut -d: -f2
}
for read in 1 2; do
	BEFORE=$(not_modified)
	curl -fsS "http://$COORD/v1/sketch/users/snapshot" -o "$WORK/read$read.bin"
	AFTER=$(not_modified)
	echo "merged snapshot read $read: $(wc -c <"$WORK/read$read.bin") bytes, not_modified $BEFORE -> $AFTER"
	cmp -s "$WORK/read$read.bin" "$WORK/merged.bin" ||
		{ echo "FAIL: merged snapshot read $read differs from the merge of the shard snapshots"; exit 1; }
done
[ "$AFTER" -gt "$BEFORE" ] ||
	{ echo "FAIL: the second read of an unchanged sketch left not_modified at $AFTER"; exit 1; }

echo "PASS: cluster smoke (3 shards + coordinator, 2 tenants, kill -9 + WAL recovery)"
