// Quickstart: spin up an in-process federation of three workers, create a
// federated matrix, and train a model without the raw data ever leaving
// its site — the ExDRa §3.2 workflow
//
//	features = Federated(sds, [node1,node2], ([...],[...]))
//	model = features.l2svm(labels).compute()
//
// translated to Go.
package main

import (
	"fmt"
	"log"

	"exdra/internal/algo"
	"exdra/internal/data"
	"exdra/internal/engine"
	"exdra/internal/federated"
	"exdra/internal/fedtest"
	"exdra/internal/matrix"
	"exdra/internal/privacy"
)

func main() {
	// 1. Start three standing federated workers (in production these are
	//    separate `fedworker` processes at the federated sites).
	cluster, err := fedtest.Start(fedtest.Config{Workers: 3})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	fmt.Println("federated workers:", cluster.Addrs)

	// 2. Create a federated feature matrix. PrivateAggregation means only
	//    aggregates may ever leave a site.
	x, y := data.Classification(7, 3000, 40, 0.01)
	fx, err := federated.Distribute(cluster.Coord, x, cluster.Addrs,
		federated.RowPartitioned, privacy.PrivateAggregation)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("federated matrix:", fx)

	// 3. Raw data cannot be consolidated ...
	if _, err := fx.Consolidate(); err != nil {
		fmt.Println("consolidation blocked as expected:", err)
	}

	// 4. ... but the same L2SVM script that runs locally trains on it,
	//    exchanging only aggregates (labels stay at the coordinator).
	model, err := algo.L2SVM(fx, y, algo.L2SVMConfig{MaxIterations: 20})
	if err != nil {
		log.Fatal(err)
	}
	scores, err := model.Predict(fx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("federated L2SVM: train accuracy %.3f after %d iterations\n",
		algo.Accuracy(scores, y), model.Iterations)

	// 5. Operations written against the engine run on federated and local
	//    matrices alike. The centering and the squaring below read nothing
	//    back, so the coordinator buffers them and they travel with the sum
	//    that does: three operations, one round trip per worker.
	calls := cluster.Registry().Snapshot().Counters["rpc.client.calls"]
	total, err := sumOfSquares(fx, x.ColMeans())
	if err != nil {
		log.Fatal(err)
	}
	calls = cluster.Registry().Snapshot().Counters["rpc.client.calls"] - calls
	fmt.Printf("total sum of squares about the column means: %.1f (%d calls to %d workers)\n",
		total, calls, len(cluster.Addrs))

	// 6. Aggregates remain available under the privacy constraint.
	mean, err := fx.AggFull(matrix.AggMean)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("federated mean of %d cells: %.4f (moved %d KB over the wire)\n",
		x.Rows()*x.Cols(), mean, cluster.Coord.BytesSent()/1024)
}

// sumOfSquares computes sum((x - means)^2) as an engine script; x may be
// local or federated.
func sumOfSquares(x engine.Mat, means *matrix.Dense) (total float64, err error) {
	defer engine.Guard(&err)
	centered := engine.Sub(x, means)
	squared := engine.Mul(centered, centered)
	total = engine.Sum(squared)
	engine.Free(centered, squared)
	return total, nil
}
