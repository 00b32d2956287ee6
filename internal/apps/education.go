package apps

import (
	"errors"
	"fmt"
	"strings"

	"mcommerce/internal/core"
	"mcommerce/internal/database"
	"mcommerce/internal/device"
	"mcommerce/internal/simnet"
	"mcommerce/internal/webserver"
)

// Education is Table 1's "Mobile classrooms and labs" row for schools and
// training centers: a course catalog, enrollment, and graded quizzes that
// students take from handheld devices.
type Education struct{}

// NewEducation returns the education service.
func NewEducation() *Education { return &Education{} }

var _ Service = (*Education)(nil)

// Category implements Service.
func (s *Education) Category() string { return "Education" }

// Application implements Service.
func (s *Education) Application() string { return "Mobile classrooms and labs" }

// Clients implements Service.
func (s *Education) Clients() string { return "Schools and training centers" }

// Education API payloads.
type (
	// Course is a catalog entry.
	Course struct {
		ID       string `json:"id"`
		Title    string `json:"title"`
		Seats    int64  `json:"seats"`
		Enrolled int64  `json:"enrolled"`
	}
	// EnrollRequest registers a student on a course.
	EnrollRequest struct {
		Course  string `json:"course"`
		Student string `json:"student"`
	}
	// Quiz is a set of questions with hidden answers.
	Quiz struct {
		Course    string   `json:"course"`
		Questions []string `json:"questions"`
	}
	// QuizSubmission carries a student's answers.
	QuizSubmission struct {
		Course  string   `json:"course"`
		Student string   `json:"student"`
		Answers []string `json:"answers"`
	}
	// QuizResult is the grade.
	QuizResult struct {
		Correct int `json:"correct"`
		Total   int `json:"total"`
	}
)

// Register implements Service.
func (s *Education) Register(h *core.Host) error {
	if err := h.DB.CreateTable("courses", database.Schema{
		{Name: "id", Type: database.TypeString},
		{Name: "title", Type: database.TypeString},
		{Name: "seats", Type: database.TypeInt},
		{Name: "enrolled", Type: database.TypeInt},
		// questions/answers are ;-separated lists, a deliberate
		// flat-schema simplification.
		{Name: "questions", Type: database.TypeString},
		{Name: "answers", Type: database.TypeString},
	}, "id"); err != nil {
		return err
	}
	if err := h.DB.CreateTable("enrollments", database.Schema{
		{Name: "id", Type: database.TypeString}, // course/student
		{Name: "course", Type: database.TypeString},
		{Name: "student", Type: database.TypeString},
	}, "id"); err != nil {
		return err
	}

	// Seed a small catalog so examples and benches have content.
	seed := []database.Row{
		{"id": "go101", "title": "Intro to Go", "seats": int64(30), "enrolled": int64(0),
			"questions": "Is Go compiled?;Does Go have classes?", "answers": "yes;no"},
		{"id": "mc201", "title": "Mobile Commerce Systems", "seats": int64(25), "enrolled": int64(0),
			"questions": "How many components in an MC system?;Is WAP a middleware?", "answers": "6;yes"},
	}
	if err := h.DB.Atomically(func(tx *database.Tx) error {
		for _, r := range seed {
			if err := tx.Insert("courses", r); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	h.Server.Handle("/edu/courses", func(r *webserver.Request) *webserver.Response {
		var out []Course
		err := h.DB.Atomically(func(tx *database.Tx) error {
			return tx.Scan("courses", func(row database.Row) bool {
				out = append(out, courseView(row))
				return true
			})
		})
		if err != nil {
			return fail(500, "courses: %v", err)
		}
		return respondJSON(out)
	})

	h.Server.Handle("/edu/enroll", func(r *webserver.Request) *webserver.Response {
		var req EnrollRequest
		if err := readJSON(r, &req); err != nil || req.Course == "" || req.Student == "" {
			return fail(400, "bad enroll request")
		}
		var after Course
		err := h.DB.Atomically(func(tx *database.Tx) error {
			course, err := tx.Get("courses", req.Course)
			if err != nil {
				return err
			}
			enrolled, _ := course["enrolled"].(int64)
			seats, _ := course["seats"].(int64)
			if enrolled >= seats {
				return fmt.Errorf("%w: course full", ErrService)
			}
			if err := tx.Insert("enrollments", database.Row{
				"id": req.Course + "/" + req.Student, "course": req.Course, "student": req.Student,
			}); err != nil {
				return err
			}
			course["enrolled"] = enrolled + 1
			if err := tx.Update("courses", course); err != nil {
				return err
			}
			after = courseView(course)
			return nil
		})
		switch {
		case err == nil:
			return respondJSON(after)
		case errors.Is(err, database.ErrNotFound):
			return fail(404, "no course %s", req.Course)
		case errors.Is(err, database.ErrExists):
			return fail(409, "already enrolled")
		case errors.Is(err, ErrService):
			return fail(409, "course full")
		default:
			return fail(500, "enroll: %v", err)
		}
	})

	h.Server.Handle("/edu/quiz", func(r *webserver.Request) *webserver.Response {
		id := r.Query["course"]
		var quiz Quiz
		err := h.DB.Atomically(func(tx *database.Tx) error {
			row, err := tx.Get("courses", id)
			if err != nil {
				return err
			}
			qs, _ := row["questions"].(string)
			quiz = Quiz{Course: id, Questions: splitList(qs)}
			return nil
		})
		if errors.Is(err, database.ErrNotFound) {
			return fail(404, "no course %s", id)
		}
		if err != nil {
			return fail(500, "quiz: %v", err)
		}
		return respondJSON(quiz)
	})

	h.Server.Handle("/edu/quiz/submit", func(r *webserver.Request) *webserver.Response {
		var sub QuizSubmission
		if err := readJSON(r, &sub); err != nil {
			return fail(400, "bad submission")
		}
		var result QuizResult
		err := h.DB.Atomically(func(tx *database.Tx) error {
			// Only enrolled students are graded.
			if _, err := tx.Get("enrollments", sub.Course+"/"+sub.Student); err != nil {
				return fmt.Errorf("%w: not enrolled", ErrService)
			}
			row, err := tx.Get("courses", sub.Course)
			if err != nil {
				return err
			}
			answers := splitList(row["answers"].(string))
			result = QuizResult{Total: len(answers)}
			for i, want := range answers {
				if i < len(sub.Answers) && strings.EqualFold(strings.TrimSpace(sub.Answers[i]), want) {
					result.Correct++
				}
			}
			return nil
		})
		switch {
		case err == nil:
			return respondJSON(result)
		case errors.Is(err, ErrService):
			return fail(403, "not enrolled")
		case errors.Is(err, database.ErrNotFound):
			return fail(404, "no course %s", sub.Course)
		default:
			return fail(500, "grade: %v", err)
		}
	})
	return nil
}

func courseView(row database.Row) Course {
	id, _ := row["id"].(string)
	title, _ := row["title"].(string)
	seats, _ := row["seats"].(int64)
	enrolled, _ := row["enrolled"].(int64)
	return Course{ID: id, Title: title, Seats: seats, Enrolled: enrolled}
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ";")
}

// EducationClient accesses the mobile classroom from a station.
type EducationClient struct {
	Fetcher device.Fetcher
	Origin  simnet.Addr
}

// Courses lists the catalog.
func (c *EducationClient) Courses(done func([]Course, error)) {
	get[[]Course](c.Fetcher, c.Origin, "/edu/courses", done)
}

// Enroll registers the student.
func (c *EducationClient) Enroll(course, student string, done func(Course, error)) {
	call(c.Fetcher, c.Origin, "/edu/enroll", EnrollRequest{Course: course, Student: student}, done)
}

// Quiz fetches a course quiz.
func (c *EducationClient) Quiz(course string, done func(Quiz, error)) {
	get[Quiz](c.Fetcher, c.Origin, "/edu/quiz?course="+course, done)
}

// SubmitQuiz grades the student's answers.
func (c *EducationClient) SubmitQuiz(course, student string, answers []string, done func(QuizResult, error)) {
	call(c.Fetcher, c.Origin, "/edu/quiz/submit",
		QuizSubmission{Course: course, Student: student, Answers: answers}, done)
}
