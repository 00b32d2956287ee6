// Command app uses every live declaration of the fixture.
package main

import (
	"encoding/json"
	"fmt"

	"fixture/db"
	"fixture/store"
)

func main() {
	c := store.New(db.DB{Rows: map[string]string{"a": "1"}})
	fmt.Println(c.Get("a"), db.Key("a"))
	var n db.Counter
	n.Inc()
	n.Reset()
	b, _ := json.Marshal(db.Dur(5))
	fmt.Println(string(b))
	fmt.Println(db.Fields())
	pool := db.DefaultPoolConfig()
	pool.Workers = 2
	fmt.Println(pool)
}
