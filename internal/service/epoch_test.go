package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"pseudocircuit/internal/store"
)

// TestEpochPinsResults puts store.Epoch beside what it vouches for: the key
// of a handful of canonical requests and the SHA-256 of their result JSON. A
// disk store answers a key with whatever result it was given under the same
// Epoch, so a change that moves a result while Epoch stays would have an old
// store serve the old answer. A digest that moves here must move with a bump
// of store.Epoch and a re-pin of every row under the new one. A key moves
// only with the canonical spec (TestCanonicalKeysPinned).
func TestEpochPinsResults(t *testing.T) {
	const epoch = "1"
	const short = `"topology":"mesh4x4","warmup":200,"measure":1000`
	rows := []struct{ name, request, key, result string }{
		{"plain", `{` + short + `,"scheme":"pseudo+s+b","workload":{"rate":0.1}}`,
			"1ac7b581a2fb5efc13129e08ec1731ec0a9b1426b34cc03fa8757b5b8e1a9c7d",
			"a2dbb30c1751b48026e329d48790baea0b6e4bd95a8482f91e93d55ac4afd9d6"},
		{"faults drop", `{` + short + `,"scheme":"pseudo+s+b","workload":{"rate":0.1},"faults":{"drop":"drop","events":[` +
			`{"cycle":400,"kind":"router-down","router":5},{"cycle":900,"kind":"router-up","router":5}]}}`,
			"faadb339087fd0a53223707fd1c14744e7a09d37f957d7928ad74374deb5af89",
			"fc4830d46d4396365898f55c809d148862303020aae370b432e320f7ca33c0d1"},
		{"faults reroute", `{` + short + `,"scheme":"pseudo+s+b","workload":{"rate":0.4},"faults":{"drop":"reroute","events":[` +
			`{"cycle":400,"kind":"link-down","router":5},{"cycle":900,"kind":"link-up","router":5}]}}`,
			"71a9db76953190c342f09bb0a2382de713116a73d5b374b90712f2b2ad7bf906",
			"19c2c591e17ef8e509f617909aecaf4205ad84be35495e73cdc0378544fb16bf"},
		{"churn reliable", `{` + short + `,"scheme":"pseudo+s+b","workload":{"rate":0.05},` +
			`"churn":{"seed":7,"linkFail":0.0005,"linkRepair":0.01,"drop":"reroute"},"reliable":{}}`,
			"011d4ebe2585302e166eee50d279278a4fe8df196fd0a915d253b93dd86865bd",
			"62b2c2ccbf4d31db2d6015f7206c5efc208f53fba9a9370c46590df57db3b453"},
		{"evc", `{` + short + `,"scheme":"baseline","useEVC":true,"workload":{"pattern":"bitcomp","rate":0.1}}`,
			"d1dc35fbbdf000ce1855573af0dc3929190ecf33dba1942bbed884bf5f683b97",
			"d84c2f9b541103700b625c13b8fbeb078a857d70a2eff17bdda24d11441ee27d"},
		{"cmp", `{"topology":"cmesh4x4x4","warmup":200,"measure":1000,"scheme":"pseudo+s+b","va":"static",` +
			`"workload":{"kind":"cmp","benchmark":"fma3d"}}`,
			"462e61bd8609aac4e0ed9efcfb34402b3631cc37c06bc73a71458a798bf1de53",
			"455e6dfd156e2236b4a99a76e7c37afcf5ed1005b4530e0074ac8dbbb48d2557"},
	}
	if store.Epoch != epoch {
		t.Fatalf("store.Epoch is %q and these digests were pinned under %q: re-pin every row under the new epoch", store.Epoch, epoch)
	}
	m := New(Config{Workers: 1})
	defer shutdown(t, m)
	for _, row := range rows {
		req, err := DecodeRequest([]byte(row.request))
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		j, _, err := m.Do(context.Background(), req, nil)
		if err != nil || j.State != StateDone {
			t.Fatalf("%s: %v (job %+v)", row.name, err, j)
		}
		b, err := json.Marshal(j.Result)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		if j.Key != row.key {
			t.Errorf("%s: key %s, pinned %s", row.name, j.Key, row.key)
		}
		if got := hex.EncodeToString(sum[:]); got != row.result {
			t.Errorf("%s: result digest %s, pinned %s under store.Epoch %q: bump store.Epoch", row.name, got, row.result, epoch)
		}
	}
}
